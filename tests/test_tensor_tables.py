"""Tensor products against their block-by-block reference loops.

``tensor_coalgebras`` registers and fills every reduced key in one pass
over a list of leg pairs, and ``tensor_dg`` builds units, curvatures and
differentials with the shared vector helpers.  The oracles below build
the same tables block by block: three registration loops and three fill
loops for the coalgebra, two hand loops per differential for the
category.  Slots and every table must come out equal, in dict order, on
every pair of the sample library and on seeded random instances, over Q,
GF(2) and GF(3).
"""

import itertools

import pytest

from koszulcat.coalgebra import (PointedCoalgebra, point_coalgebra,
                                 tensor_coalgebras, zero_coalgebra)
from koszulcat.dgcat import (DgCategory, empty_category, tensor_dg,
                             zero_category)
from koszulcat.field import GF, QQ, vec_add, vec_bump, vec_scale
from koszulcat.quiver import GradedQuiver, lkey, pair_key, quiver_tensor, rkey
from koszulcat.randgen import random_coalgebra, random_dg_category
from koszulcat.samples import CATEGORY_LIBRARY, COALGEBRA_LIBRARY

FIELDS = [QQ, GF(2), GF(3)]
FIELD_IDS = ["q", "f2", "f3"]
RANDOM_SEEDS = range(30)


# -- the oracles -------------------------------------------------------------


def oracle_tensor_coalgebras(c, d):
    """C (x) D with the three key blocks registered, then filled, apart."""
    F = c.field
    objects = [(x, y) for x in c.objects for y in d.objects]

    slots = {}

    def reg(key):
        slots.setdefault((key[0], key[1], key[2]), []).append(key[3])

    ckeys = list(c.reduced.keys())
    dkeys = list(d.reduced.keys())
    for ck in ckeys:
        for y in d.objects:
            reg(lkey(ck, y))
    for x in c.objects:
        for dk in dkeys:
            reg(rkey(x, dk))
    for ck in ckeys:
        for dk in dkeys:
            reg(pair_key(ck, dk))
    quiver = GradedQuiver(objects, {s: tuple(v) for s, v in slots.items()})

    def is_g(f):
        return len(f) == 2 and f[0] == "G"

    def full_delta(coa, f):
        if is_g(f):
            return [(f, f, F.one)]
        x, y, _, _ = f
        return [(("G", x), f, F.one), (f, ("G", y), F.one)] + [
            (a, b, cc) for (a, b), cc in coa.comult.get(f, {}).items()]

    def pair_or_none(cf, df):
        if is_g(cf) and is_g(df):
            return None
        if is_g(cf):
            return rkey(cf[1], df)
        if is_g(df):
            return lkey(cf, df[1])
        return pair_key(cf, df)

    def deg(f):
        return 0 if is_g(f) else f[2]

    comult, diff, curv = {}, {}, {}

    def install(ck, dk, key):
        pv = {}
        for (c1, c2, cc) in full_delta(c, ck):
            for (d1, d2, dd) in full_delta(d, dk):
                left = pair_or_none(c1, d1)
                right = pair_or_none(c2, d2)
                if left is None or right is None:
                    continue
                sgn = F.coerce(-1) if (deg(d1) * deg(c2)) % 2 else F.one
                vec_bump(F, pv, (left, right), F.mul(sgn, F.mul(cc, dd)))
        if pv:
            comult[key] = pv
        dv = {}
        if not is_g(ck):
            for k2, cc in c.diff.get(ck, {}).items():
                vec_bump(F, dv, pair_or_none(k2, dk), cc)
        if not is_g(dk):
            sgn = F.coerce(-1) if deg(ck) % 2 else F.one
            for k2, cc in d.diff.get(dk, {}).items():
                vec_bump(F, dv, pair_or_none(ck, k2), F.mul(sgn, cc))
        if dv:
            diff[key] = dv
        if is_g(dk) and not is_g(ck):
            hv = c.curv.get(ck)
            if hv is not None:
                curv[key] = hv
        if is_g(ck) and not is_g(dk):
            hv = d.curv.get(dk)
            if hv is not None:
                curv[key] = hv

    for ck in ckeys:
        for y in d.objects:
            install(ck, ("G", y), lkey(ck, y))
    for x in c.objects:
        for dk in dkeys:
            install(("G", x), dk, rkey(x, dk))
    for ck in ckeys:
        for dk in dkeys:
            install(ck, dk, pair_key(ck, dk))
    return PointedCoalgebra(F, objects, quiver, comult, diff=diff, curv=curv)


def oracle_tensor_dg(c, d):
    """C (x) D with units, curvatures and differentials in separate loops."""
    F = c.field
    quiver = quiver_tensor(c.quiver, d.quiver)

    def pair_vec(v1, v2):
        out = {}
        for k1, a in v1.items():
            for k2, b in v2.items():
                vec_bump(F, out, pair_key(k1, k2), F.mul(a, b))
        return out

    unit = {}
    for x in c.quiver.objects:
        for xp in d.quiver.objects:
            unit[(x, xp)] = pair_vec(c.unit_vec(x), d.unit_vec(xp))

    comp = {}
    ckeys = list(c.quiver.keys())
    dkeys = list(d.quiver.keys())
    for g1 in ckeys:
        for f1 in ckeys:
            if f1[1] != g1[0]:
                continue
            base = c.comp.get((g1, f1))
            if not base:
                continue
            for g2 in dkeys:
                for f2 in dkeys:
                    if f2[1] != g2[0]:
                        continue
                    base2 = d.comp.get((g2, f2))
                    if not base2:
                        continue
                    sgn = F.coerce(-1) if (g2[2] * f1[2]) % 2 else F.one
                    comp[(pair_key(g1, g2), pair_key(f1, f2))] = vec_scale(
                        F, sgn, pair_vec(base, base2))

    diff = {}
    for k1 in ckeys:
        d1 = c.diff.get(k1, {})
        for k2 in dkeys:
            d2 = d.diff.get(k2, {})
            out = {}
            for kk, cc in pair_vec(d1, {k2: F.one}).items():
                vec_bump(F, out, kk, cc)
            sgn = F.coerce(-1) if k1[2] % 2 else F.one
            for kk, cc in pair_vec({k1: F.one}, d2).items():
                vec_bump(F, out, kk, F.mul(sgn, cc))
            if out:
                diff[pair_key(k1, k2)] = out

    curvature = {}
    for x in c.quiver.objects:
        for xp in d.quiver.objects:
            h = vec_add(F, pair_vec(c.curvature_vec(x), d.unit_vec(xp)),
                        pair_vec(c.unit_vec(x), d.curvature_vec(xp)))
            if h:
                curvature[(x, xp)] = h
    return DgCategory(F, quiver, unit, comp, diff=diff, curvature=curvature)


# -- comparison --------------------------------------------------------------


def _ordered(table):
    """A table as nested item lists, so equality also checks dict order."""
    return [(k, list(v.items()) if isinstance(v, dict) else v)
            for k, v in table.items()]


def coalgebra_tables(t):
    return (t.objects, list(t.reduced.slots.items()), _ordered(t.comult),
            _ordered(t.diff), _ordered(t.curv))


def category_tables(t):
    return (t.quiver.objects, list(t.quiver.slots.items()), _ordered(t.unit),
            _ordered(t.comp), _ordered(t.diff), _ordered(t.curvature))


def _coalgebras(F):
    named = [make(F) for _, make in sorted(COALGEBRA_LIBRARY.items())]
    return named + [point_coalgebra(F), zero_coalgebra(F)]


def _categories(F):
    named = [make(F) for _, make in sorted(CATEGORY_LIBRARY.items())]
    return named + [empty_category(F), zero_category(F)]


@pytest.mark.parametrize("F", FIELDS, ids=FIELD_IDS)
def test_tensor_coalgebras_matches_oracle_on_library(F):
    for c, d in itertools.product(_coalgebras(F), repeat=2):
        assert (coalgebra_tables(tensor_coalgebras(c, d))
                == coalgebra_tables(oracle_tensor_coalgebras(c, d)))


@pytest.mark.parametrize("F", FIELDS, ids=FIELD_IDS)
def test_tensor_dg_matches_oracle_on_library(F):
    for c, d in itertools.product(_categories(F), repeat=2):
        assert (category_tables(tensor_dg(c, d))
                == category_tables(oracle_tensor_dg(c, d)))


@pytest.mark.parametrize("F", FIELDS, ids=FIELD_IDS)
def test_tensor_coalgebras_matches_oracle_on_random(F):
    for seed in RANDOM_SEEDS:
        c = random_coalgebra(F, seed)
        d = random_coalgebra(F, 1000 + seed)
        assert (coalgebra_tables(tensor_coalgebras(c, d))
                == coalgebra_tables(oracle_tensor_coalgebras(c, d))), seed


@pytest.mark.parametrize("F", FIELDS, ids=FIELD_IDS)
def test_tensor_dg_matches_oracle_on_random(F):
    for seed in RANDOM_SEEDS:
        c = random_dg_category(F, seed)
        d = random_dg_category(F, 1000 + seed)
        assert (category_tables(tensor_dg(c, d))
                == category_tables(oracle_tensor_dg(c, d))), seed
