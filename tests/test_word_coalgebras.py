"""Bar and cotensor coalgebras against their word-by-word reference loops.

Both constructions rank their words (``quiver.Words``) instead of
listing them: ids run shortest first and lexicographically in letter
order, a key is built from its id on its first read, and slot
dimensions are counted, not listed (``quiver.WordQuiver``).  The bar
derives the row d(w'.a) from the row d(w') on word ids when it is first
read, splitting each letter and each two-letter word once.  The oracles
below list their words with ``keep_listing``, which uses no trie, and
recompute everything at every position of every word, with every word
degree summed afresh.  Slots, comultiplication, differential and
curvature must come out equal, in dict order, on the sample library
(weight caps 0 to 3), on seeded random categories, under custom unit
complements, on the bar of an MC category, and on cotensors of random
and cyclic generator quivers.  Neither
coalgebra stores its comultiplication: it keeps its ranked words
(``quiver.Words``), ``delta`` reads them key by key (``Words.get``),
and ``comult`` is built from them on the first read (``Words.table``).
A bar keeps d on word ids too (``quiver.WordMap``): a row is computed
when first read, ``d`` names one row, and ``diff`` computes and names
them all on its first read.  So each case also checks ``delta`` and
``d`` against those tables, read before and after, and on a second bar
reads every row deepest word first, before its parent's row exists.
Separate tests pin that reading rows builds no whole table, that
building a bar computes no row and reading one computes at most its
parent chain, and that the map is freed with its bar without the cycle
collector.  Another pins the slot dimensions of a bar of 64,307,661
words against a transfer-matrix count, with the word lister
``quiver.WordTrie`` made to raise: neither construction lists a word.
The custom complements give words whose merge term hits a term of
d(w').a, which pins the order in which the recursion adds terms.  Equal
keys in the built tables and in the rows read must be one object.
"""

import gc
import random
import weakref

import pytest

from koszulcat.barcobar import Splitting, bar_construction, cobar_construction
from koszulcat.coalgebra import PointedCoalgebra, cotensor_coalgebra
from koszulcat.convmc import (enumerate_coalgebra_morphisms, internal_hom,
                              mc_category, mc_check, mc_enumerate)
from koszulcat.field import GF, QQ, vec_bump
from koszulcat.quiver import GradedQuiver, WordMap, WordTrie
from koszulcat.randgen import random_dg_category, random_word_coalgebra
from koszulcat.samples import CATEGORY_LIBRARY, COALGEBRA_LIBRARY, dual_numbers
from test_quiver import keep_listing

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
    for w in keep_listing(sp.letters, weight_cap)[0]:
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
    words, _ = keep_listing(list(generators.keys()), max_weight)

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


def word_tables(coa):
    """``tables`` of a freshly built word coalgebra.  On every reduced key,
    ``delta`` read off the words before ``comult`` is first read, and
    again after, must equal the entry of ``comult``, in order too; so
    must ``d``, read before and after ``diff`` is first built, equal the
    entry of ``diff``; a row read twice is one dict.  The keys they
    return are the coalgebra's own."""
    keys = list(coa.reduced.keys())
    before = [coa.delta(k) for k in keys]
    d_before = [coa.d(k) for k in keys]
    # a row is named once and kept
    assert all(a is coa.d(k) for a, k in zip(d_before, keys) if a)
    got = tables(coa)
    for table in ([coa.comult.get(k, {}) for k in keys],
                  [coa.delta(k) for k in keys]):
        assert [ordered(v) for v in before] == [ordered(v) for v in table]
    for table in ([coa.diff.get(k, {}) for k in keys],
                  [coa.d(k) for k in keys]):
        assert [ordered(v) for v in d_before] == [ordered(v) for v in table]
    assert_keys_shared(coa, before, d_before)
    return got


def assert_bar_matches(cat, cap, splitting=None):
    if cat.is_curved():
        with pytest.raises(ValueError, match="uncurved"):
            bar_construction(cat, cap, splitting)
        return
    sp = splitting if splitting is not None else Splitting(cat)
    bar = bar_construction(cat, cap, splitting)
    want = tables(oracle_bar(cat, cap, sp))
    assert word_tables(bar) == want
    # rows read deepest word first, each before its parent's row exists
    deep = bar_construction(cat, cap, splitting)
    keys = sorted(deep.reduced.keys(), key=lambda k: -len(k[3]))
    rows = {k: ordered(deep.d(k)) for k in keys}
    assert tables(deep) == want
    assert all(ordered(deep.diff.get(k, {})) == v for k, v in rows.items())


def assert_keys_shared(coa, deltas=(), rows=()):
    occ = [k for pairs in deltas for pair in pairs for k in pair]
    occ += [k for row in rows for k in row]
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
    for cap in (0, 1, 2, 3):
        assert_bar_matches(cat, cap)


@pytest.mark.parametrize("seed", range(20))
def test_random_bars_match_oracle(seed):
    field = (QQ, F3)[seed % 2]
    cat = random_dg_category(field, seed)
    for cap in (0, 3):
        assert_bar_matches(cat, cap)


@pytest.mark.parametrize("cap", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(
    n for n, make in CATEGORY_LIBRARY.items() if not make(F3).is_curved()))
def test_bar_splits_each_letter_and_pair_once(name, cap):
    cat = CATEGORY_LIBRARY[name](F3)
    sp = Splitting(cat)
    calls = []
    split = sp.split

    def counting_split(v):
        calls.append(v)
        return split(v)

    sp.split = counting_split
    bar = bar_construction(cat, cap, sp)
    pairs = [k for k in bar.reduced.keys() if len(k[3]) == 2]
    assert len(calls) == len(sp.letters) + len(pairs)
    if cap >= 2:
        words, _ = keep_listing(sp.letters, 2)
        assert len(pairs) == len(words) - len(sp.letters)


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


def count_rows(monkeypatch):
    """Patch every ``WordMap`` built from here on to list the word ids of
    the rows it computes, and return that list; the patch holds no map."""
    computed = []
    init = WordMap.__init__

    def counting_init(self, words, rule):
        def counted(w, row):
            computed.append(w)
            return rule(w, row)
        init(self, words, counted)
    monkeypatch.setattr(WordMap, "__init__", counting_init)
    return computed


def test_reading_bar_rows_builds_no_d_table(monkeypatch):
    """``apply_d``, the cobar, the MC search and check on the bar, and a
    morphism search into it read d row by row; only ``diff`` (here the
    validator's) builds the whole table, once.  No row is computed
    twice."""
    computed = count_rows(monkeypatch)
    built = []
    table = WordMap.table

    def counted(self):
        built.append(self)
        return table(self)
    monkeypatch.setattr(WordMap, "table", counted)
    d = CATEGORY_LIBRARY["trunc_poly3"](F3)
    bar = bar_construction(d, 3)
    for k in bar.reduced.keys():
        bar.apply_d({k: F3.one})
    assert cobar_construction(bar, length_cap=2).category.quiver.total_dim()
    els = mc_enumerate(bar, d)
    assert els and all(mc_check(bar, d, m)[0] for m in els)
    assert enumerate_coalgebra_morphisms(COALGEBRA_LIBRARY["neg_primitive"](F3),
                                         bar, weight_cap=3)
    assert built == []
    assert bar.validate() == []
    assert len(built) == 1
    assert sorted(computed) == list(range(bar.reduced.total_dim()))


def test_bar_rows_are_computed_when_read(monkeypatch):
    """Building the internal hom computes no d row of its bar, and reading
    the row of a word of length L computes at most L rows: the word's
    own and those of its parent chain not yet computed."""
    computed = count_rows(monkeypatch)
    F5 = GF(5)
    uh = internal_hom(COALGEBRA_LIBRARY["neg_primitive"](F5),
                      CATEGORY_LIBRARY["contractible_endo"](F5), 3)
    assert computed == []
    keys = sorted(uh.reduced.keys(), key=lambda k: -len(k[3]))
    assert len(keys[0][3]) == 3
    uh.d(keys[0])
    assert len(computed) == 3
    for k in keys[::97]:
        before = len(computed)
        uh.d(k)
        assert len(computed) - before <= len(k[3])
    assert len(set(computed)) == len(computed) < len(keys)


def test_bar_rows_hold_no_reference_cycle(monkeypatch):
    """A bar's d is freed with the bar, without the cycle collector."""
    maps = []
    init = WordMap.__init__

    def recording_init(self, words, rule):
        maps.append(weakref.ref(self))
        init(self, words, rule)
    monkeypatch.setattr(WordMap, "__init__", recording_init)
    gc.disable()
    try:
        bar = bar_construction(CATEGORY_LIBRARY["trunc_poly3"](F3), 3)
        assert bar.d(max(bar.reduced.keys(), key=lambda k: len(k[3])))
        assert len(maps) == 1 and maps[0]() is not None
        del bar
        assert maps[0]() is None
    finally:
        gc.enable()


def transfer_dims(letters, cap):
    """The words of 1 to ``cap`` composable ``letters``, counted by degree
    off the powers of the transfer matrix: entry (x, y) of M is the
    polynomial sum of t^n over the letters (x, y, n, _), and entry (x, y)
    of M^m that of the m-letter words from x to y."""
    step = {}
    for x, y, n, _ in letters:
        poly = step.setdefault((x, y), {})
        poly[n] = poly.get(n, 0) + 1
    objects = {x for a in letters for x in a[:2]}
    power = {(x, x): {0: 1} for x in objects}
    dims = {}
    for _ in range(cap):
        nxt = {}
        for (x, z), p in power.items():
            for (z2, y), q in step.items():
                if z2 == z:
                    poly = nxt.setdefault((x, y), {})
                    for n, c in p.items():
                        for k, e in q.items():
                            poly[n + k] = poly.get(n + k, 0) + c * e
        power = nxt
        for poly in power.values():
            for n, c in poly.items():
                dims[n] = dims.get(n, 0) + c
    return dims


def dims_by_degree(quiver):
    dims = {}
    for (_, _, n), names in quiver.slots.items():
        dims[n] = dims.get(n, 0) + len(names)
    return dims


def test_word_coalgebras_count_slots_and_list_no_word(monkeypatch):
    """The bar of uHom(neg_primitive, BD) at cap 7, D = contractible_endo
    over GF(3), has 64,307,661 words; its slot dimensions are counted,
    and agree with the transfer matrix of its letters.  So do those of a
    cotensor on a cyclic quiver.  The word lister is never called."""
    def no_listing(*args, **kwargs):
        raise AssertionError("a word coalgebra listed its words")

    monkeypatch.setattr(WordTrie, "__init__", no_listing)
    bar = internal_hom(COALGEBRA_LIBRARY["neg_primitive"](F3),
                       CATEGORY_LIBRARY["contractible_endo"](F3), 7)
    letters = [(k[0], k[1], k[2] - 1, k) for k in bar.splitting.letters]
    dims = transfer_dims(letters, 7)
    assert dims_by_degree(bar.reduced) == dims
    assert bar.reduced.total_dim() == sum(dims.values()) == 64_307_661
    assert bar.reduced.degree_support() == (min(dims), max(dims)) == (-14, 0)
    gen = GradedQuiver(("a", "b"), {("a", "b", 1): ("f",),
                                    ("b", "a", -1): ("g", "g2"),
                                    ("a", "a", 0): ("h",)})
    coa = cotensor_coalgebra(F3, gen, 12)
    assert dims_by_degree(coa.reduced) == transfer_dims(
        list(gen.keys()), 12)


# -- cotensors ---------------------------------------------------------------


def assert_cotensor_matches(field, gen, max_weight):
    coa = cotensor_coalgebra(field, gen, max_weight)
    assert word_tables(coa) == tables(oracle_cotensor(field, gen, max_weight))


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
