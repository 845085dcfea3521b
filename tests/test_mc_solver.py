"""The Maurer-Cartan solver against brute force.

``oracle_mc_enumerate`` is the exhaustive product loop ``mc_enumerate``
ran before it solved rows by propagation: every point of F^N on every
object map, each checked against every residual row.  The solver must
return the same elements in the same order on the sample library, on
the path coalgebras and random targets of the three-way count, on bars
of random categories and on the bar of k[x]/x^3.
"""

import random
from itertools import product

import pytest

from koszulcat.barcobar import bar_construction
from koszulcat.coalgebra import cotensor_coalgebra
from koszulcat.convmc import (MCElement, _mc_coords, _mc_residual_row,
                              mc_check, mc_enumerate)
from koszulcat.field import GF, QQ
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
        coords = _mc_coords(c, d, om)
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


def test_default_budget_reaches_gf11():
    # 11^6 candidates were past the budget for the product loop
    F = GF(11)
    d = CATEGORY_LIBRARY["trunc_poly3"](F)
    bar = bar_construction(d, 3)
    els = mc_enumerate(bar, d)
    assert len(els) == 11 ** 2
    assert len({m.canonical() for m in els}) == len(els)
    assert all(mc_check(bar, d, m)[0] for m in els)


def test_forced_solutions_over_q():
    # d(xi w) + eta = 0 forces xi(w) = -y: one solve, no branch
    d = CATEGORY_LIBRARY["contractible_endo"](QQ)
    w = COALGEBRA_LIBRARY["w"](QQ)
    els = mc_enumerate(w, d, budget=1)
    wrow = next(iter(w.reduced.keys()))
    assert [m.xi for m in els] == [{wrow: {("*", "*", -1, "y"): QQ.coerce(-1)}}]
    # a closed degree -1 primitive is free: the search would branch
    with pytest.raises(ValueError, match="finite field"):
        mc_enumerate(COALGEBRA_LIBRARY["neg_primitive"](QQ), d)


def test_budget_counts_branch_values_and_family_points():
    F = GF(3)
    d = CATEGORY_LIBRARY["contractible_endo"](F)
    c = COALGEBRA_LIBRARY["neg_primitive"](F)
    assert len(mc_enumerate(c, d, budget=3)) == 3  # one branch, three values
    with pytest.raises(ValueError, match="budget="):
        mc_enumerate(c, d, budget=2)
    w = COALGEBRA_LIBRARY["w"](F)
    assert len(mc_enumerate(w, d, budget=1)) == 1  # one forced point
    with pytest.raises(ValueError, match="budget="):
        mc_enumerate(w, d, budget=0)
