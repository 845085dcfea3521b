"""Bar and cobar: exactness, signs, sentinels, splittings.

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

from koszulcat import barcobar, dgcat
from koszulcat.barcobar import (
    CobarResult,
    Splitting,
    bar_construction,
    cobar_construction,
)
from koszulcat.coalgebra import FinalCoalgebra, PointedCoalgebra, zero_coalgebra
from koszulcat.convmc import convolution_category
from koszulcat.dgcat import empty_category, free_category, zero_category
from koszulcat.field import GF, QQ, vec_addmul, vec_bump
from koszulcat.quiver import GradedQuiver
from koszulcat.randgen import (random_coalgebra, random_dg_category,
                               random_free_category)
from koszulcat.samples import (
    CATEGORY_LIBRARY,
    COALGEBRA_LIBRARY,
    a2_category,
    contractible_endo,
    dual_numbers,
    group_like,
    truncated_polynomial,
)
from test_quiver import keep_listing

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


def oracle_path_category(field, objects, letters, d_letter, max_len=None,
                         weights=None, max_weight=None):
    """``dgcat._path_category`` without the word trie: the words come from
    ``keep_listing`` as tuples of letters, each split is rebuilt by
    slicing and looked up in ``key_of``, and so is each replacement word
    of d, letter by letter.  Same arguments and results."""
    F = field
    words, comp_truncated = keep_listing(letters, max_len, weights,
                                         max_weight)
    slots = {(x, x, 0): [()] for x in objects}
    key_of = {}
    for w in words:
        k = (w[0][0], w[-1][1], sum(a[2] for a in w), tuple(a[3] for a in w))
        key_of[w] = k
        slots.setdefault(k[:3], []).append(k[3])

    def key(w, at):
        return key_of[w] if w else (at, at, 0, ())

    unit, comp = {}, {}
    for x in objects:
        u = key((), x)
        unit[x] = {u: F.one}
        comp[(u, u)] = {u: F.one}
    for w, k in key_of.items():
        for i in range(len(w) + 1):
            at = w[i - 1][1] if i else w[0][0]
            # comp[(g, f)] = g after f: f = w[:i] runs first
            comp[(key(w[i:], at), key(w[:i], at))] = {k: F.one}

    by_name = {a[3]: a for a in letters}
    diff = {}
    trunc_min_len = None
    for w, k in key_of.items():
        out = {}
        dropped = False
        for i, a in enumerate(w):
            sign = sum(b[2] for b in w[i + 1:]) % 2
            for repl, c in d_letter.get(a[3], ()):
                new = w[:i] + tuple(by_name.get(n) for n in repl) + w[i + 1:]
                nk = key_of.get(new) if new else key(new, w[0][0])
                if nk is None:
                    dropped = True
                    continue
                vec_bump(F, out, nk, F.neg(c) if sign else c)
        if dropped and trunc_min_len is None:
            trunc_min_len = len(w)
        if out:
            diff[k] = out
    cat = dgcat.DgCategory(F, GradedQuiver(objects, slots), unit, comp,
                           diff=diff)
    return cat, comp_truncated, trunc_min_len


def _category_tables(cat):
    return (list(cat.quiver.slots.items()), list(cat.unit.items()),
            list(cat.comp.items()), list(cat.diff.items()),
            list(cat.curvature.items()))


def _cobar_tables(res):
    return (_category_tables(res.category), res.exact, res.trunc_min_len,
            res.comp_truncated)


@pytest.mark.parametrize("field", [QQ, F2, F3], ids=["q", "f2", "f3"])
def test_cobar_word_weights_match_summed_rule(field, monkeypatch):
    """Listing each word on the trie, within its weight budget, keeps
    every cobar table, values and insertion order, and the exactness
    flags, as ``oracle_path_category`` does, which filters every
    candidate by its re-summed weight.  The cases are the coalgebra
    library and the bars of every uncurved sample up to weight 5, under
    length-only, weight-only and combined caps.  The oracle extends
    every word by every letter, so bars past 160 letters and length-only
    caps past 1,000 words are left out."""
    cases = [(COALGEBRA_LIBRARY[n](field), cap)
             for n in sorted(COALGEBRA_LIBRARY)
             for cap in [dict(length_cap=3), dict(weight_cap=3),
                         dict(length_cap=2, weight_cap=3)]]
    for n in sorted(CATEGORY_LIBRARY):
        if CATEGORY_LIBRARY[n](field).is_curved():
            continue
        for b in range(1, 6):
            bar = bar_construction(CATEGORY_LIBRARY[n](field), b)
            n_letters = bar.reduced.total_dim()
            if n_letters > 160:
                break
            caps = [dict(weight_cap=b), dict(length_cap=2, weight_cap=b)]
            caps += [dict(length_cap=k) for k in range(1, b + 1)
                     if n_letters ** k <= 1000]
            cases += [(bar, cap) for cap in caps]
    got = [_cobar_tables(cobar_construction(c, **cap)) for c, cap in cases]
    monkeypatch.setattr(barcobar, "_path_category", oracle_path_category)
    for i, (c, cap) in enumerate(cases):
        assert got[i] == _cobar_tables(cobar_construction(c, **cap)), (i, cap)


def _free_categories(field):
    """Seeded random free categories, then two with a differential (the
    random ones seldom have one): odd generators a, b with d(a) = da,
    and a, b: 0 -> 1 and c: 1 -> 2 with d(a) = -b."""
    cats = [random_free_category(field, random.Random(s)) for s in range(40)]
    gen = GradedQuiver(("x", "y", "z"), {
        ("x", "y", 1): ("a",), ("x", "y", 2): ("da",), ("y", "z", 1): ("b",)})
    cats.append(free_category(field, gen, {
        ("x", "y", 1, "a"): {("x", "y", 2, ("da",)): field.one}}))
    gen = GradedQuiver(("0", "1", "2"), {
        ("0", "1", -1): ("a",), ("0", "1", 0): ("b",), ("1", "2", 0): ("c",)})
    cats.append(free_category(field, gen, {
        ("0", "1", -1, "a"): {("0", "1", 0, ("b",)): field.coerce(-1)}}))
    return cats


@pytest.mark.parametrize("field", [QQ, F3], ids=["q", "f3"])
def test_free_categories_match_oracle(field, monkeypatch):
    """Free categories keep their tables, values and insertion order,
    under ``oracle_path_category``."""
    got = [_category_tables(c) for c in _free_categories(field)]
    monkeypatch.setattr(dgcat, "_path_category", oracle_path_category)
    want = [_category_tables(c) for c in _free_categories(field)]
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, i
    assert got[-1][3] and got[-2][3]


@pytest.mark.parametrize("name, cap, words, comp_entries", [
    ("trunc_poly3", 5, 683, 2617),
    ("contractible_pair", 4, 778, 2644),
    ("odd_pair_diff", 3, 556, 1636),
])
def test_counit_cobar_sizes(name, cap, words, comp_entries):
    """The cobars of the counit at the default weight cap: word and
    composition counts, d complete, composites past the cap dropped."""
    res = cobar_construction(
        bar_construction(CATEGORY_LIBRARY[name](QQ), cap), weight_cap=cap)
    cat = res.category
    assert cat.quiver.total_dim() == words
    assert len(cat.comp) == comp_entries
    assert res.trunc_min_len is None and res.comp_truncated
    assert not res.exact


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


@pytest.mark.parametrize("field", [QQ, F3], ids=["q", "f3"])
def test_cobar_drops_a_term_inside_a_word(field):
    # dag with a primitive c: z -> w appended: at length cap 2, m~.c~ is
    # the one word whose d loses a term, a~.b~.c~ from its first letter
    objects = ("x", "y", "z", "w")
    quiver = GradedQuiver(objects, {
        ("x", "y", 0): ("a",), ("y", "z", 0): ("b",), ("x", "z", 0): ("m",),
        ("z", "w", 0): ("c",)})
    a, b, m = ("x", "y", 0, "a"), ("y", "z", 0, "b"), ("x", "z", 0, "m")
    c = ("z", "w", 0, "c")
    coa = PointedCoalgebra(field, objects, quiver, {m: {(a, b): field.one}})
    mc = ("x", "w", 2, (m, c))
    short = cobar_construction(coa, length_cap=2)
    assert short.trunc_min_len == 2 and not short.exact
    assert mc in short.category.quiver.keys() and mc not in short.category.diff
    full = cobar_construction(coa, length_cap=3)
    assert full.exact and full.category.validate() == []
    # d(m~ c~) = d(m~) c~ with the sign of |c~| = 1
    assert full.category.diff[mc] == {("x", "w", 3, (a, b, c)): field.coerce(-1)}


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


@pytest.mark.parametrize("field", [QQ, F3], ids=["q", "f3"])
def test_cobar_dsquare_reports_a_bumped_word(field):
    """d^2 != 0 is found: one coefficient of d(u) bumped onto a word v
    with d(v) != 0 puts d(v) into d^2(u), for two words u.  The report
    names them, and every word whose d reaches them, as a scan of
    d(d(word)) over the basis does; a cut keeps its start."""
    res = cobar_construction(bar_construction(dual_numbers(field), 4),
                             weight_cap=4)
    cat = res.category
    assert res.trunc_min_len is None and res.d_squared_problems() == []
    keys = list(cat.quiver.keys())
    bumped = []
    for u in keys:
        v = next((v for v in keys if v[:3] == (u[0], u[1], u[2] + 1)
                  and cat.diff.get(v)), None)
        if v is not None and len(bumped) < 2:
            vec_bump(field, cat.diff.setdefault(u, {}), v, field.one)
            bumped.append(u)
    assert len(bumped) == 2
    full = res.d_squared_problems(10**9)
    assert full == [f"d^2 != 0 at {k}" for k in keys
                    if cat.apply_d(cat.diff.get(k, {}))]
    assert {f"d^2 != 0 at {u}" for u in bumped} <= set(full)
    for n in range(3):
        assert res.d_squared_problems(n) == full[:n]


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
    with pytest.raises(ValueError, match="do not span the slot at '\\*'"):
        Splitting(dual, complement={"*": [unit_again]})


def test_splitting_refuses_a_complement_it_cannot_use():
    # a misspelled object, or one whose unit is zero, has no slot to split
    x = {("*", "*", 0, "x"): F3.one}
    with pytest.raises(ValueError, match="complement at 'typo'"):
        Splitting(dual_numbers(F3), complement={"typo": [x]})
    with pytest.raises(ValueError, match="complement at '\\*'"):
        Splitting(zero_category(F3), complement={"*": []})


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


# {dag, d} has one object per object map, and its unit there is a sum of
# one basis key per object of dag: the default complement leaves out one of
# them, and splitting must still rebuild every key of the slot

UNCURVED = sorted(n for n, mk in CATEGORY_LIBRARY.items() if not mk(QQ).is_curved())


def _dag_conv(name, field):
    return convolution_category(COALGEBRA_LIBRARY["dag"](field),
                                CATEGORY_LIBRARY[name](field)).to_dg_category()


@pytest.mark.parametrize("name", UNCURVED)
@pytest.mark.parametrize("field", [QQ, F3], ids=["q", "f3"])
def test_split_rebuilds_multi_key_units(name, field):
    d = _dag_conv(name, field)
    sp = Splitting(d)
    assert any(len(d.unit_vec(x)) > 1 for x in d.quiver.objects)
    for x in d.quiver.objects:
        for a in d.quiver.slot(x, x, 0):
            k = (x, x, 0, a)
            units, red = sp.split({k: field.one})
            back = {}
            for y, c in units.items():
                back = vec_addmul(field, back, c, d.unit_vec(y))
            for lk, c in red.items():
                back = vec_addmul(field, back, c, sp.letter_vec(lk))
            assert back == {k: field.one}, k


@pytest.mark.parametrize("name", ["a2", "contractible_endo", "exterior_line"])
def test_default_splitting_is_the_spelled_out_complement(name):
    d = _dag_conv(name, F3)
    default = bar_construction(d, 2)
    complement, rename = {}, {}
    for x in d.quiver.objects:
        pivot = min(d.unit_vec(x), key=repr)
        keys = [(x, x, 0, a) for a in d.quiver.slot(x, x, 0)]
        letters = [k for k in keys if k != pivot]
        complement[x] = [{k: F3.one} for k in letters]
        rename.update(((x, x, 0, ("split", i)), k) for i, k in enumerate(letters))
    spelled = bar_construction(d, 2, splitting=Splitting(d, complement=complement))

    def ren(bk):
        return bk[:3] + (tuple(rename.get(a, a) for a in bk[3]),)

    assert default.validate() == []
    assert list(default.reduced.keys()) == [ren(k) for k in spelled.reduced.keys()]
    assert default.comult == {ren(k): {(ren(p), ren(q)): c for (p, q), c in v.items()}
                              for k, v in spelled.comult.items()}
    assert default.diff == {ren(k): {ren(k2): c for k2, c in v.items()}
                            for k, v in spelled.diff.items()}
    assert default.curv == {ren(k): c for k, c in spelled.curv.items()}


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


def test_bar_refuses_a_splitting_of_another_category():
    """The splitting a bar is built on must split the category barred:
    trunc_poly3's would spell dual_numbers' bar with its own six words."""
    F3 = GF(3)
    dual = dual_numbers(F3)
    assert bar_construction(dual, 2).reduced.total_dim() == 2
    foreign = Splitting(truncated_polynomial(F3, 3))
    with pytest.raises(ValueError, match="another category"):
        bar_construction(dual, 2, splitting=foreign)
