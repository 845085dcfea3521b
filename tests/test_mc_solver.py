"""The propagation solver against brute force, on all three hom sets.

``oracle_mc_enumerate``, ``oracle_enumerate_dg_functors`` and
``oracle_enumerate_coalgebra_morphisms`` are the exhaustive product loops
the three enumerators ran before they solved rows by propagation: every
point of F^N on every object map, each checked against its defining
equations (the morphism loop builds and validates every candidate).  The
solver must return the same elements in the same order on the sample
library, on the path coalgebras and random targets of the three-way
count, on bars of random categories, on the bar of k[x]/x^3 and on the
tensor-hom cases.
"""

import random
from itertools import product

import pytest

from koszulcat.barcobar import bar_construction, cobar_construction
from koszulcat.coalgebra import (CoalgebraMorphism, cotensor_coalgebra,
                                 tensor_coalgebras)
from koszulcat.convmc import (MCElement, _mc_residual_row,
                              enumerate_coalgebra_morphisms,
                              enumerate_dg_functors, internal_hom, mc_check,
                              mc_enumerate)
from koszulcat.dgcat import DgFunctor
from koszulcat.field import GF, QQ, vec_addmul, vec_bump
from koszulcat.quiver import GradedQuiver, object_maps
from koszulcat.randgen import random_dg_category
from koszulcat.samples import CATEGORY_LIBRARY, COALGEBRA_LIBRARY

FIELDS = [GF(2), GF(3), GF(5)]
FIELD_IDS = ["f2", "f3", "f5"]
UNCURVED = [n for n in sorted(CATEGORY_LIBRARY)
            if not CATEGORY_LIBRARY[n](GF(2)).is_curved()]


def oracle_mc_enumerate(c, d):
    """Every point of F^N, in product order, kept if every row vanishes."""
    F = c.field
    out, seen = [], set()
    for om in object_maps(c.objects, d.quiver.objects):
        om = dict(zip(c.objects, om))
        coords = [(ck, (om[ck[0]], om[ck[1]], ck[2] + 1, name))
                  for ck in c.reduced.keys()
                  for name in d.quiver.slot(om[ck[0]], om[ck[1]], ck[2] + 1)]
        elems = list(F.elements()) if coords else []
        for assignment in product(elems, repeat=len(coords)):
            xi = {}
            for (ck, dk), val in zip(coords, assignment):
                if not F.is_zero(val):
                    xi.setdefault(ck, {})[dk] = val
            if all(not _mc_residual_row(c, d, om, xi, ck)
                   for ck in c.reduced.keys()):
                m = MCElement(om, xi)
                if m.canonical() not in seen:
                    seen.add(m.canonical())
                    out.append(m)
    return out


def oracle_eval_word(d, om, images, letters, x):
    """The letters' images composed in path order; the unit on no letters."""
    if not letters:
        return d.unit_vec(om[x])
    v = dict(images.get(letters[0], {}))
    for ck in letters[1:]:
        v = d.compose(images.get(ck, {}), v)
    return v


def oracle_enumerate_dg_functors(src, d):
    """Every generator assignment in product order, kept if it commutes
    with d on every generator, extended multiplicatively."""
    F = src.field
    gens = [k for k in src.quiver.keys() if len(k[3]) == 1]
    objs = src.quiver.objects
    out = []
    for pick in object_maps(objs, d.quiver.objects):
        om = dict(zip(objs, pick))
        if any(d.curvature_vec(om[x]) for x in objs):
            continue
        coords = [(g, (om[g[0]], om[g[1]], g[2], name)) for g in gens
                  for name in d.quiver.slot(om[g[0]], om[g[1]], g[2])]
        elems = list(F.elements()) if coords else []
        for assignment in product(elems, repeat=len(coords)):
            images = {}
            for (g, dk), val in zip(coords, assignment):
                if not F.is_zero(val):
                    images.setdefault(g[3][0], {})[dk] = val
            ok = True
            for g in gens:
                lhs = {}
                for wk, coeff in src.diff.get(g, {}).items():
                    lhs = vec_addmul(F, lhs, coeff,
                                     oracle_eval_word(d, om, images, wk[3], wk[0]))
                if lhs != d.apply_d(images.get(g[3][0], {})):
                    ok = False
                    break
            if ok:
                action = {}
                for k in src.quiver.keys():
                    v = oracle_eval_word(d, om, images, k[3], k[0])
                    if v:
                        action[k] = v
                out.append(DgFunctor(src, d, om, action))
    return out


def oracle_bar_words(c, p1):
    """p1 tensored w times against the w-fold deconcatenation, every w."""
    F = c.field
    action = {}
    for ck in c.reduced.keys():
        out = {}
        w = 1
        while True:
            parts = c.deconcat(ck, w)
            if not parts:
                break
            for chain, lam in parts.items():
                for combo in product(*(p1.get(k, {}).items() for k in chain)):
                    letters = tuple(l for l, _ in combo)
                    coeff = lam
                    for _, s in combo:
                        coeff = F.mul(coeff, s)
                    wk = (letters[0][0], letters[-1][1],
                          sum(k[2] - 1 for k in letters), letters)
                    vec_bump(F, out, wk, coeff)
            w += 1
        if out:
            action[ck] = out
    return action


def oracle_enumerate_coalgebra_morphisms(c, bar_coa):
    """Every (one-letter, twist) assignment in product order, with a twist
    coordinate on every degree -1 row, kept if the candidate validates."""
    F = c.field
    slots = {}
    for wk in bar_coa.reduced.keys():
        if len(wk[3]) == 1:
            slots.setdefault(wk[:3], []).append(wk[3][0])
    rows = list(c.reduced.keys())
    twist_rows = [ck for ck in rows if ck[2] == -1]
    out = []
    for pick in object_maps(c.objects, bar_coa.objects):
        om = dict(zip(c.objects, pick))
        coords = [(ck, letter) for ck in rows
                  for letter in slots.get((om[ck[0]], om[ck[1]], ck[2]), [])]
        n = len(coords) + len(twist_rows)
        elems = list(F.elements()) if n else []
        for assignment in product(elems, repeat=n):
            p1, twist = {}, {}
            for (ck, letter), val in zip(coords, assignment):
                if not F.is_zero(val):
                    p1.setdefault(ck, {})[letter] = val
            for ck, val in zip(twist_rows, assignment[len(coords):]):
                if not F.is_zero(val):
                    twist[ck] = val
            cand = CoalgebraMorphism(c, bar_coa, om, oracle_bar_words(c, p1),
                                     twist)
            if not cand.validate():
                out.append(cand)
    return out


def _functor_print(f):
    return (f.object_map, f.action)


def assert_functors_match_oracle(src, d, case=None):
    got = enumerate_dg_functors(src, d, budget=1 << 22)
    want = oracle_enumerate_dg_functors(src, d)
    assert [_functor_print(f) for f in got] == \
        [_functor_print(f) for f in want], case
    return got


def assert_morphisms_match_oracle(c, bar_coa, cap, case=None):
    got = enumerate_coalgebra_morphisms(c, bar_coa, weight_cap=cap,
                                        budget=1 << 22)
    want = oracle_enumerate_coalgebra_morphisms(c, bar_coa)
    assert got == want, case
    return got


def assert_same_as_oracle(c, d, case=None):
    got = mc_enumerate(c, d, budget=1 << 22)
    want = oracle_mc_enumerate(c, d)
    assert [m.canonical() for m in got] == [m.canonical() for m in want], case
    return got


def path_coalgebra(field, rng):
    # deconcatenation coalgebra over u -> v -> w with random degrees
    slots = {}
    for i, (x, y) in enumerate((("u", "v"), ("v", "w"))):
        slots[(x, y, rng.choice([-1, 0, 1]))] = (f"g{i}",)
    gen = GradedQuiver(("u", "v", "w"), slots)
    return cotensor_coalgebra(field, gen, max_weight=2)


@pytest.mark.parametrize("cname", sorted(COALGEBRA_LIBRARY))
@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_library_pairs_match_oracle(field, cname):
    for dname in UNCURVED:
        c = COALGEBRA_LIBRARY[cname](field)
        assert_same_as_oracle(c, CATEGORY_LIBRARY[dname](field), dname)


def test_three_way_path_coalgebras_match_oracle():
    F = GF(3)
    for s in range(120):
        rng = random.Random(f"mc_search:{s}")
        c = path_coalgebra(F, rng)
        d = random_dg_category(F, rng.randrange(1 << 30), max_dim=3,
                               allow_curved=False)
        assert_same_as_oracle(c, d, s)


@pytest.mark.parametrize("field,cap", [(GF(2), 2), (GF(2), 3), (GF(3), 2)],
                         ids=["f2-2", "f2-3", "f3-2"])
def test_bars_of_random_categories_match_oracle(field, cap):
    for seed in range(30):
        d = random_dg_category(field, seed, max_dim=3, allow_curved=False)
        assert_same_as_oracle(bar_construction(d, cap), d, seed)


def test_bar_of_trunc_poly3_matches_oracle():
    F = GF(5)
    d = CATEGORY_LIBRARY["trunc_poly3"](F)
    bar = bar_construction(d, 3)
    els = assert_same_as_oracle(bar, d)
    assert len(els) == 25
    assert all(mc_check(bar, d, m)[0] for m in els)


@pytest.mark.parametrize("dname", ["a2", "exterior_line", "dual_numbers"])
@pytest.mark.parametrize("field", FIELDS[:2], ids=FIELD_IDS[:2])
def test_dag_functors_and_morphisms_match_oracle(field, dname):
    c = COALGEBRA_LIBRARY["dag"](field)
    d = CATEGORY_LIBRARY[dname](field)
    funs = assert_functors_match_oracle(
        cobar_construction(c, length_cap=3).category, d)
    mors = assert_morphisms_match_oracle(c, bar_construction(d, 3), 3)
    assert len(funs) == len(mors) == len(mc_enumerate(c, d))


@pytest.mark.parametrize("cname", sorted(COALGEBRA_LIBRARY))
@pytest.mark.parametrize("field", FIELDS[:2], ids=FIELD_IDS[:2])
def test_library_functors_and_morphisms_match_oracle(field, cname):
    # curved_chain brings d and h on the source, so F(dc), a(dc) and the
    # curvature row all enter
    c = COALGEBRA_LIBRARY[cname](field)
    src = cobar_construction(c, length_cap=3).category
    for dname in UNCURVED:
        d = CATEGORY_LIBRARY[dname](field)
        assert_functors_match_oracle(src, d, dname)
        assert_morphisms_match_oracle(c, bar_construction(d, 3), 3, dname)


@pytest.mark.parametrize("field", FIELDS[:2], ids=FIELD_IDS[:2])
def test_three_way_functors_and_morphisms_match_oracle(field):
    # over GF(3), seed 142 is the first whose solutions twist a degree -1
    # cofactor c'' beside an odd c' with F(c') != 0, the one place the
    # sign (-1)^|c'| of the twisted differential shows
    for s in range(150):
        rng = random.Random(f"threeway:{s}")
        c = path_coalgebra(field, rng)
        d = random_dg_category(field, rng.randrange(1 << 30), max_dim=3,
                               allow_curved=False)
        cob = cobar_construction(c, length_cap=3)
        assert cob.exact
        funs = assert_functors_match_oracle(cob.category, d, s)
        mors = assert_morphisms_match_oracle(c, bar_construction(d, 2), 2, s)
        assert len(funs) == len(mors) == len(mc_enumerate(c, d)), s


@pytest.mark.parametrize("cname,pname", [
    ("w", "neg_primitive"), ("neg_primitive", "neg_primitive"), ("w", "w")])
def test_tensor_hom_morphisms_match_oracle(cname, pname):
    F = GF(2)
    c = COALGEBRA_LIBRARY[cname](F)
    cp = COALGEBRA_LIBRARY[pname](F)
    d = CATEGORY_LIBRARY["contractible_endo"](F)
    assert_morphisms_match_oracle(tensor_coalgebras(c, cp),
                                  bar_construction(d, 3), 3)
    assert_morphisms_match_oracle(c, internal_hom(cp, d, 3), 3)


def test_twisted_morphisms_match_oracle():
    # the degree -1 primitive has no letter to go to: only its twist moves
    F = GF(3)
    c = COALGEBRA_LIBRARY["neg_primitive"](F)
    d = CATEGORY_LIBRARY["contractible_endo"](F)
    mors = assert_morphisms_match_oracle(c, bar_construction(d, 3), 3)
    u = next(iter(c.reduced.keys()))
    assert [m.twist for m in mors] == [{}, {u: 1}, {u: 2}]


def test_default_budget_reaches_gf11():
    # 11^6 candidates were past the budget for the product loop
    F = GF(11)
    d = CATEGORY_LIBRARY["trunc_poly3"](F)
    bar = bar_construction(d, 3)
    els = mc_enumerate(bar, d)
    assert len(els) == 11 ** 2
    assert len({m.canonical() for m in els}) == len(els)
    assert all(mc_check(bar, d, m)[0] for m in els)


def _three_searches(c, d, budget=1 << 22):
    """The three enumerators on C and D; the cobar category is passed
    bare, because a one-object cobar is never exact under a cap."""
    cob = cobar_construction(c, length_cap=3).category
    return (lambda: mc_enumerate(c, d, budget=budget),
            lambda: enumerate_dg_functors(cob, d, budget=budget),
            lambda: enumerate_coalgebra_morphisms(
                c, bar_construction(d, 3), weight_cap=3, budget=budget))


def test_forced_solutions_over_q():
    # d(xi w) + eta = 0 forces xi(w) = -y: one solve, no branch
    d = CATEGORY_LIBRARY["contractible_endo"](QQ)
    w = COALGEBRA_LIBRARY["w"](QQ)
    els = mc_enumerate(w, d, budget=1)
    wrow = next(iter(w.reduced.keys()))
    assert [m.xi for m in els] == [{wrow: {("*", "*", -1, "y"): QQ.coerce(-1)}}]
    assert [len(search()) for search in _three_searches(w, d, 1)] == [1, 1, 1]
    # a closed degree -1 primitive is free: every search would branch
    for search in _three_searches(COALGEBRA_LIBRARY["neg_primitive"](QQ), d):
        with pytest.raises(ValueError, match="finite field"):
            search()


def test_budget_counts_branch_values_and_family_points():
    F = GF(3)
    d = CATEGORY_LIBRARY["contractible_endo"](F)
    c = COALGEBRA_LIBRARY["neg_primitive"](F)
    w = COALGEBRA_LIBRARY["w"](F)
    # neg_primitive: one free coordinate, three values (xi, F(g), twist);
    # w: one forced point in each search
    for coa, need in ((c, 3), (w, 1)):
        for search in _three_searches(coa, d, need):
            assert len(search()) == need
        for search in _three_searches(coa, d, need - 1):
            with pytest.raises(ValueError, match="budget="):
                search()


def test_negated_theta_fails_the_functor_oracle(monkeypatch):
    """The functor search reads xi = theta F; with theta negated it solves
    the rows of -xi, which differ wherever curvature or a product meets a
    coordinate, and the oracle sees it."""
    from koszulcat import convmc
    theta = convmc._theta
    monkeypatch.setattr(convmc, "_theta",
                        lambda field, n: field.neg(theta(field, n)))
    F = GF(3)
    failed = []
    for cname in sorted(COALGEBRA_LIBRARY):
        src = cobar_construction(COALGEBRA_LIBRARY[cname](F),
                                 length_cap=3).category
        for dname in UNCURVED:
            try:
                assert_functors_match_oracle(src, CATEGORY_LIBRARY[dname](F))
            except AssertionError:
                failed.append((cname, dname))
    assert ("w", "contractible_endo") in failed


def test_negated_letters_fail_the_morphism_oracle(monkeypatch):
    """The morphism search reads a one-letter coordinate as minus its
    letter.  With the letters negated, the validation of each solution
    refuses a solved morphism; with that check skipped as well, the
    oracle sees the wrong morphisms."""
    from koszulcat import convmc
    from koszulcat.barcobar import Splitting
    F = GF(3)
    bars = {n: bar_construction(CATEGORY_LIBRARY[n](F), 3) for n in UNCURVED}
    letter_vec = Splitting.letter_vec
    monkeypatch.setattr(Splitting, "letter_vec", lambda self, k: {
        a: F.neg(x) for a, x in letter_vec(self, k).items()})
    w = COALGEBRA_LIBRARY["w"](F)
    with pytest.raises(ValueError, match="fails validation"):
        enumerate_coalgebra_morphisms(w, bars["contractible_endo"], 3)

    class Unchecked(CoalgebraMorphism):
        def validate(self, max_problems=25):
            return []

    monkeypatch.setattr(convmc, "CoalgebraMorphism", Unchecked)
    failed = []
    for cname in sorted(COALGEBRA_LIBRARY):
        for dname in UNCURVED:
            try:
                assert_morphisms_match_oracle(COALGEBRA_LIBRARY[cname](F),
                                              bars[dname], 3)
            except AssertionError:
                failed.append((cname, dname))
    assert ("w", "contractible_endo") in failed


def test_sweep_functors_validate():
    F = GF(3)
    for s in range(120):
        rng = random.Random(f"mc_search:{s}")
        c = path_coalgebra(F, rng)
        d = random_dg_category(F, rng.randrange(1 << 30), max_dim=3,
                               allow_curved=False)
        for f in enumerate_dg_functors(cobar_construction(c, length_cap=3), d,
                                       budget=1 << 22):
            assert f.validate() == [], s
