"""Bar and cotensor coalgebras against their word-by-word reference loops.

Both constructions share one deconcatenation builder, which keys every
word once, and the bar builds d(w'.a) from d(w').  The oracles below
recompute everything at every position of every word, with every word
degree summed afresh.  Slots, comultiplication, differential and
curvature must come out equal, in dict order, on the sample library, on
seeded random categories, under custom unit complements, on the bar of an
MC category, and on cotensors of random and cyclic generator quivers.
The custom complements give words whose merge term hits a term of
d(w').a, which pins the order in which the recursion adds terms.  Equal
keys in the built tables must be one object.
"""

import random

import pytest

from koszulcat.barcobar import Splitting, bar_construction
from koszulcat.coalgebra import PointedCoalgebra, cotensor_coalgebra
from koszulcat.convmc import mc_category
from koszulcat.field import GF, QQ, vec_bump
from koszulcat.quiver import GradedQuiver, composable_words
from koszulcat.randgen import random_dg_category, random_word_coalgebra
from koszulcat.samples import CATEGORY_LIBRARY, COALGEBRA_LIBRARY, dual_numbers

F2, F3 = GF(2), GF(3)


# -- the oracles -------------------------------------------------------------


def _word_key(w, shift):
    return (w[0][0], w[-1][1], sum(k[2] + shift for k in w), w)


def oracle_bar(cat, weight_cap, sp):
    """The bar of an uncurved category with units, one word at a time."""
    F = cat.field
    bdeg = {k: k[2] - 1 for k in sp.letters}
    slots = {}
    comult = {}
    diff = {}
    curv = {}
    minus_one = F.neg(F.one)
    for w in composable_words(sp.letters, weight_cap):
        wk = _word_key(w, -1)
        slots.setdefault((wk[0], wk[1], wk[2]), []).append(w)
        if len(w) > 1:
            comult[wk] = {
                (_word_key(w[:i], -1), _word_key(w[i:], -1)): F.one
                for i in range(1, len(w))
            }
        dvec = {}
        hval = F.zero
        kappa = 0
        for i, k in enumerate(w):
            sgn = minus_one if kappa % 2 == 0 else F.one
            units, red = sp.split(cat.apply_d(sp.letter_vec(k)))
            for k2, c in red.items():
                nw = w[:i] + (k2,) + w[i + 1:]
                vec_bump(F, dvec, _word_key(nw, -1), F.mul(sgn, c))
            if len(w) == 1 and units:
                hval = F.add(hval, units[k[0]])
            if i + 1 < len(w):
                mexp = kappa + k[2] * bdeg[w[i + 1]]
                msgn = F.one if mexp % 2 == 0 else minus_one
                munits, mred = sp.split(
                    cat.compose(sp.letter_vec(w[i + 1]), sp.letter_vec(k)))
                for k2, c in mred.items():
                    nw = w[:i] + (k2,) + w[i + 2:]
                    vec_bump(F, dvec, _word_key(nw, -1), F.mul(msgn, c))
                if len(w) == 2 and munits:
                    hval = F.sub(hval, munits[k[0]])
            kappa += bdeg[k]
        if dvec:
            diff[wk] = dvec
        if not F.is_zero(hval):
            curv[wk] = hval
    quiver = GradedQuiver(cat.quiver.objects,
                          {s: tuple(ws) for s, ws in slots.items()})
    return PointedCoalgebra(F, cat.quiver.objects, quiver, comult,
                            diff=diff, curv=curv)


def oracle_cotensor(field, generators, max_weight):
    words = composable_words(list(generators.keys()), max_weight)

    def wkey(w):
        return (w[0][0], w[-1][1], sum(k[2] for k in w),
                tuple(k[3] for k in w))

    slots = {}
    for w in words:
        k = wkey(w)
        slots.setdefault((k[0], k[1], k[2]), []).append(k[3])
    quiver = GradedQuiver(generators.objects,
                          {s: tuple(v) for s, v in slots.items()})
    comult = {}
    for w in words:
        pv = {}
        for i in range(1, len(w)):
            pv[(wkey(w[:i]), wkey(w[i:]))] = field.one
        if pv:
            comult[wkey(w)] = pv
    return PointedCoalgebra(field, generators.objects, quiver, comult)


# -- comparison --------------------------------------------------------------


def ordered(table):
    """A table as nested item lists, so equality also pins dict order."""
    if isinstance(table, dict):
        return [(k, ordered(v)) for k, v in table.items()]
    return table


def tables(coa):
    return [ordered(coa.reduced.slots), ordered(coa.comult),
            ordered(coa.diff), ordered(coa.curv)]


def assert_bar_matches(cat, cap, splitting=None):
    if cat.is_curved():
        with pytest.raises(ValueError, match="uncurved"):
            bar_construction(cat, cap, splitting)
        return
    sp = splitting if splitting is not None else Splitting(cat)
    bar = bar_construction(cat, cap, splitting)
    assert tables(bar) == tables(oracle_bar(cat, cap, sp))
    assert_keys_shared(bar)


def assert_keys_shared(coa):
    occ = []
    for k, pairs in coa.comult.items():
        occ.append(k)
        for pair in pairs:
            occ += pair
    for k, img in coa.diff.items():
        occ.append(k)
        occ += img
    occ += coa.curv
    assert len({id(k) for k in occ}) == len(set(occ))


# -- bars --------------------------------------------------------------------


@pytest.mark.parametrize("field", [QQ, F3, F2], ids=["q", "f3", "f2"])
@pytest.mark.parametrize("name", sorted(CATEGORY_LIBRARY))
def test_sample_bars_match_oracle(name, field):
    cat = CATEGORY_LIBRARY[name](field)
    for cap in (1, 2, 3):
        assert_bar_matches(cat, cap)


@pytest.mark.parametrize("seed", range(20))
def test_random_bars_match_oracle(seed):
    field = (QQ, F3)[seed % 2]
    assert_bar_matches(random_dg_category(field, seed), 3)


def merge_hits(cat, cap, sp):
    """Words w'.a whose merge term of (w'[-1], a) lands on a key of d(w').a."""
    bar = bar_construction(cat, cap, sp)
    key_of = {k[3]: k for k in bar.reduced.keys()}
    hits = []
    for w in key_of:
        if len(w) > 1:
            ext = {hk[3] + w[-1:] for hk in bar.diff.get(key_of[w[:-1]], {})}
            _, mred = sp.split(cat.compose(sp.letter_vec(w[-1]),
                                           sp.letter_vec(w[-2])))
            if ext & {w[:-2] + (k2,) for k2 in mred}:
                hits.append(w)
    return hits


def test_custom_splittings_match_oracle():
    dual = dual_numbers(F3)
    cvec = {("*", "*", 0, "x"): F3.one, ("*", "*", 0, "e"): F3.one}
    sp = Splitting(dual, complement={"*": [cvec]})
    assert merge_hits(dual, 4, sp)
    assert_bar_matches(dual, 4, sp)
    rng = random.Random(7)
    for name in ("dual_numbers", "trunc_poly3"):
        for field in (QQ, F3, GF(5)):
            cat = CATEGORY_LIBRARY[name](field)
            vecs = []
            for a in sorted(cat.quiver.slot("*", "*", 0)):
                if a == "e":
                    continue
                v = {("*", "*", 0, a): field.one}
                c = field.random(rng)
                if not field.is_zero(c):
                    v[("*", "*", 0, "e")] = c
                vecs.append(v)
            assert_bar_matches(cat, 3, Splitting(cat, complement={"*": vecs}))


@pytest.mark.parametrize("c, d, cap", [
    # 8 objects and 384 arrows: 16,768 words at cap 2, 728,312 at cap 3
    ("dag", "contractible_arrow", 2),
    # the internal hom of the closed benchmark, one cap lower
    ("neg_primitive", "contractible_endo", 3),
])
def test_mc_category_bars_match_oracle(c, d, cap):
    mcc = mc_category(COALGEBRA_LIBRARY[c](F3), CATEGORY_LIBRARY[d](F3))
    assert_bar_matches(mcc.category, cap)


# -- cotensors ---------------------------------------------------------------


def assert_cotensor_matches(field, gen, max_weight):
    coa = cotensor_coalgebra(field, gen, max_weight)
    assert tables(coa) == tables(oracle_cotensor(field, gen, max_weight))
    assert_keys_shared(coa)


@pytest.mark.parametrize("seed", range(40))
def test_random_cotensors_match_oracle(seed):
    field = (QQ, F3)[seed % 2]
    coa = random_word_coalgebra(field, random.Random(seed))
    # its generators are its one-letter words
    gen = GradedQuiver(coa.objects, {
        s: [n[0] for n in names if len(n) == 1]
        for s, names in coa.reduced.slots.items()})
    assert_cotensor_matches(field, gen, 2)
    assert_cotensor_matches(field, gen, 3)


@pytest.mark.parametrize("max_weight", range(5))
def test_cyclic_cotensor_matches_oracle(max_weight):
    gen = GradedQuiver(("a", "b"), {("a", "b", 1): ("f",),
                                    ("b", "a", -1): ("g",),
                                    ("a", "a", 0): ("h",)})
    assert_cotensor_matches(QQ, gen, max_weight)


def test_acyclic_cotensor_without_cap_matches_oracle():
    gen = GradedQuiver(("a", "b", "c"), {("a", "b", 0): ("f", "f2"),
                                         ("b", "c", 1): ("g",),
                                         ("a", "c", -1): ("h",)})
    assert_cotensor_matches(F3, gen, None)
