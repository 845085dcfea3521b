"""The coalgebra validators against their loop-by-loop oracles.

``oracle_coalgebra_problems`` and ``oracle_morphism_problems`` write each
identity of ``PointedCoalgebra.validate`` and ``CoalgebraMorphism.validate``
as its own nested loop over rDelta(k), the way the validators first did.
The validators must return the same problems in the same order, with no
cap and cut at two, on samples as built and with one coefficient bumped.
"""

import random

import pytest

from koszulcat.barcobar import bar_construction
from koszulcat.coalgebra import (CoalgebraMorphism, PointedCoalgebra,
                                 identity_morphism)
from koszulcat.convmc import enumerate_coalgebra_morphisms
from koszulcat.field import GF, QQ, vec_bump
from koszulcat.randgen import random_coalgebra
from koszulcat.samples import CATEGORY_LIBRARY, COALGEBRA_LIBRARY

FIELDS = [QQ, GF(2), GF(3)]
IDS = ["q", "f2", "f3"]
NO_CAP = 10**9


def oracle_coalgebra_problems(c, max_problems=25):
    problems = []
    F = c.field
    Q = c.reduced

    def done():
        return len(problems) >= max_problems

    for key, pairs in c.comult.items():
        if not Q.has_key(key):
            problems.append(f"comultiplication on unknown key {key!r}")
            continue
        x, y, n, _ = key
        for (a, b) in pairs:
            if (not Q.has_key(a) or not Q.has_key(b) or a[0] != x
                    or b[1] != y or a[1] != b[0] or a[2] + b[2] != n):
                problems.append(f"comultiplication of {key!r} leaves its "
                                f"slot {(x, y, n)}: {(a, b)!r}")
    for key, img in c.diff.items():
        if not Q.has_key(key):
            problems.append(f"differential on unknown key {key!r}")
            continue
        x, y, n, _ = key
        for k2 in img:
            if (k2[0], k2[1], k2[2]) != (x, y, n + 1) or not Q.has_key(k2):
                problems.append(f"differential of {key!r} leaves its slot "
                                f"{(x, y, n + 1)}: {k2!r}")
    for key, h in c.curv.items():
        if not Q.has_key(key):
            problems.append(f"curvature on unknown key {key}")
            continue
        x, y, n, _ = key
        if x != y or n != -2:
            problems.append(
                f"curvature supported outside degree -2 endomorphisms: {key}")
    if done():
        return problems

    keys = list(Q.keys())
    for k in keys:
        lhs = {}  # (rDelta (x) id) rDelta
        for (a, b), x in c.delta(k).items():
            for (a1, a2), x2 in c.delta(a).items():
                vec_bump(F, lhs, (a1, a2, b), F.mul(x, x2))
        if lhs != c.deconcat(k, 3):  # (id (x) rDelta) rDelta
            problems.append(f"reduced comultiplication not coassociative at {k}")
            if done():
                return problems

    if not c._conilpotent():
        problems.append("reduced part is not conilpotent")

    for k in keys:
        lhs = c.reduced_comult(c.d(k))
        rhs = {}
        for (a, b), x in c.delta(k).items():
            for a2, x2 in c.d(a).items():
                vec_bump(F, rhs, (a2, b), F.mul(x, x2))
            sgn = F.coerce(-1) if a[2] % 2 else F.one
            for b2, x2 in c.d(b).items():
                vec_bump(F, rhs, (a, b2), F.mul(F.mul(sgn, x), x2))
        if lhs != rhs:
            problems.append(f"co-Leibniz fails at {k}")
            if done():
                return problems

    for k in keys:
        dd = c.apply_d(c.d(k))
        want = {}
        for (a, b), x in c.delta(k).items():
            ha = c.curv.get(a)
            if ha is not None:
                vec_bump(F, want, b, F.mul(x, ha))
            hb = c.curv.get(b)
            if hb is not None:
                vec_bump(F, want, a, F.neg(F.mul(x, hb)))
        if dd != want:
            problems.append(f"d^2 does not match the curvature coaction at {k}")
            if done():
                return problems
        hd = c.curvature_value(c.d(k))
        if not F.is_zero(hd):
            problems.append(f"h o d is nonzero at {k}")
            if done():
                return problems
    return problems


def oracle_morphism_problems(m, max_problems=25):
    problems = []
    src, tgt = m.source, m.target
    F = src.field
    om = m.object_map
    for x in src.objects:
        if om.get(x) not in tgt.objects:
            problems.append(f"object {x!r} has no valid image")
    if problems:
        return problems
    for k, img in m.action.items():
        if not src.reduced.has_key(k):
            problems.append(f"action on unknown key {k!r}")
            continue
        x, y, n, _ = k
        for k2 in img:
            if ((k2[0], k2[1], k2[2]) != (om[x], om[y], n)
                    or not tgt.reduced.has_key(k2)):
                problems.append(f"action of {k!r} leaves its slot "
                                f"{(om[x], om[y], n)}: {k2!r}")
    for k, t in m.twist.items():
        if not src.reduced.has_key(k):
            problems.append(f"twist on unknown key {k}")
            continue
        x, y, n, _ = k
        if n != -1:
            problems.append(f"twist supported off degree -1: {k}")
        if om[x] != om[y]:
            problems.append(f"twist at {k} where F separates the endpoints")
    if len(problems) >= max_problems:
        return problems

    act, twist = m.action, m.twist
    for k in src.reduced.keys():
        delta = src.delta(k)
        lhs = tgt.reduced_comult(act.get(k, {}))
        rhs = {}
        for (a, b), x in delta.items():
            for ka, ca in act.get(a, {}).items():
                for kb, cb in act.get(b, {}).items():
                    vec_bump(F, rhs, (ka, kb), F.mul(x, F.mul(ca, cb)))
        if lhs != rhs:
            problems.append(f"comultiplication not respected at {k}")
            if len(problems) >= max_problems:
                return problems
        left = tgt.apply_d(act.get(k, {}))
        right = m.apply(src.d(k))
        for (a, b), x in delta.items():
            ta = twist.get(a, F.zero)
            if not F.is_zero(ta):
                for kb, cb in act.get(b, {}).items():
                    vec_bump(F, right, kb, F.mul(x, F.mul(ta, cb)))
            tb = twist.get(b, F.zero)
            if not F.is_zero(tb):
                sgn = F.one if a[2] % 2 else F.coerce(-1)
                for ka, ca in act.get(a, {}).items():
                    vec_bump(F, right, ka, F.mul(sgn, F.mul(x, F.mul(ca, tb))))
        if left != right:
            problems.append(f"differential not respected at {k}")
            if len(problems) >= max_problems:
                return problems
        hl = tgt.curvature_value(act.get(k, {}))
        hr = F.add(src.curv.get(k, F.zero), m.twist_value(src.d(k)))
        for (a, b), x in delta.items():
            q = F.mul(twist.get(a, F.zero), twist.get(b, F.zero))
            hr = F.add(hr, F.mul(x, q))
        if hl != hr:
            problems.append(f"curvature not respected at {k}")
            if len(problems) >= max_problems:
                return problems
    return problems


# -- corpora -----------------------------------------------------------------


def _bump(F, table, rng):
    """Add one to one coefficient of a copy of ``table``, picked by rng."""
    out = {k: dict(v) if isinstance(v, dict) else v for k, v in table.items()}
    spots = [(k, j) for k, v in out.items()
             for j in (v if isinstance(v, dict) else (None,))]
    k, j = rng.choice(spots)
    if j is None:
        out[k] = F.add(out[k], F.one)
    else:
        out[k][j] = F.add(out[k][j], F.one)
    return out


def built_coalgebras(F):
    """(name, coalgebra): the library, bars of the uncurved category
    samples at caps 2 and 3, and 30 random coalgebras."""
    built = [(name, COALGEBRA_LIBRARY[name](F))
             for name in sorted(COALGEBRA_LIBRARY)]
    for name in sorted(CATEGORY_LIBRARY):
        cat = CATEGORY_LIBRARY[name](F)
        if not cat.is_curved():
            built += [(f"bar {name} {cap}", bar_construction(cat, cap))
                      for cap in (2, 3)]
    return built + [(f"random {seed}", random_coalgebra(F, seed))
                    for seed in range(30)]


def coalgebra_cases(F):
    """Each built coalgebra, then with one comult, one diff and one curv
    coefficient bumped, each where that table has an entry."""
    for name, c in built_coalgebras(F):
        yield name, c
        rng = random.Random(f"{name}:{F}")
        tables = {"comult": c.comult, "diff": c.diff, "curv": c.curv}
        for which, table in tables.items():
            if table:
                bumped = dict(tables, **{which: _bump(F, table, rng)})
                yield f"{name} {which}+1", PointedCoalgebra(
                    F, c.objects, c.reduced, bumped["comult"],
                    bumped["diff"], bumped["curv"])


def morphism_cases(F):
    """Identity morphisms, and over a finite field (where the search may
    branch on a free coordinate) up to six solved morphisms into small
    bars, each as built, with one action coefficient bumped and with one
    degree -1 twist bumped."""
    built = [(f"id {name}", identity_morphism(c))
             for name, c in built_coalgebras(F)]
    targets = ("dual_numbers", "contractible_endo", "exterior_line", "a2")
    for dname in targets if F.size else ():
        bar = bar_construction(CATEGORY_LIBRARY[dname](F), 2)
        for cname in sorted(COALGEBRA_LIBRARY):
            mors = enumerate_coalgebra_morphisms(
                COALGEBRA_LIBRARY[cname](F), bar, weight_cap=2)
            built += [(f"{cname} -> B{dname} #{i}", m)
                      for i, m in enumerate(mors[:6])]
    for name, m in built:
        yield name, m
        rng = random.Random(f"{name}:{F}")
        if m.action:
            yield f"{name} action+1", CoalgebraMorphism(
                m.source, m.target, m.object_map, _bump(F, m.action, rng),
                dict(m.twist))
        odd = [k for k in m.source.reduced.keys() if k[2] == -1]
        if odd:
            twist = dict(m.twist)
            k = rng.choice(odd)
            twist[k] = F.add(twist.get(k, F.zero), F.one)
            yield f"{name} twist+1", CoalgebraMorphism(
                m.source, m.target, m.object_map,
                {a: dict(v) for a, v in m.action.items()}, twist)


# -- the validators equal their oracles --------------------------------------


@pytest.mark.parametrize("F", FIELDS, ids=IDS)
def test_coalgebra_validate_matches_oracle(F):
    cases = failing = 0
    seen = set()
    for name, c in coalgebra_cases(F):
        got = c.validate(max_problems=NO_CAP)
        assert got == oracle_coalgebra_problems(c, NO_CAP), name
        assert c.validate(max_problems=2) == oracle_coalgebra_problems(c, 2), name
        for n in (0, 1, 2):
            assert c.validate(n) == got[:n], name
        seen.update(msg.split(" at ")[0] for msg in got)
        cases += 1
        failing += bool(got)
    assert "d^2 does not match the curvature coaction" in seen
    assert "co-Leibniz fails" in seen
    assert cases == 141 and failing >= 35


@pytest.mark.parametrize("F", FIELDS, ids=IDS)
def test_morphism_validate_matches_oracle(F):
    cases = failing = 0
    seen = set()
    for name, m in morphism_cases(F):
        got = m.validate(max_problems=NO_CAP)
        assert got == oracle_morphism_problems(m, NO_CAP), name
        assert m.validate(max_problems=2) == oracle_morphism_problems(m, 2), name
        for n in (0, 1, 2):
            assert m.validate(n) == got[:n], name
        seen.update(msg.split(" at ")[0] for msg in got)
        cases += 1
        failing += bool(got)
    assert {"comultiplication not respected", "differential not respected",
            "curvature not respected"} <= seen
    assert cases == {"q": 146, "f2": 221, "f3": 244}[F.name]
    assert failing >= 68


# -- the cut and hygiene -----------------------------------------------------


def _malformed_coalgebra():
    """dag with rDelta entries on three unknown keys."""
    c = COALGEBRA_LIBRARY["dag"](QQ)
    a, b = ("x", "y", 0, "a"), ("y", "z", 0, "b")
    for i in range(3):
        c.comult[("x", "z", 0, f"ghost{i}")] = {(a, b): QQ.one}
    return c


def _malformed_morphism():
    """The identity of dag with an action on three unknown keys."""
    m = identity_morphism(COALGEBRA_LIBRARY["dag"](QQ))
    for i in range(3):
        m.action[("x", "z", 0, f"ghost{i}")] = {("x", "z", 0, "m"): QQ.one}
    return m


def _unknown_cofactors():
    """dag with m also split over three unknown cofactors."""
    c = COALGEBRA_LIBRARY["dag"](QQ)
    m, a = ("x", "z", 0, "m"), ("x", "y", 0, "a")
    for i in range(3):
        c.comult[m][(a, ("y", "z", 0, f"ghost{i}"))] = QQ.one
    return c


def _differential_of_unknown_keys():
    """dag with d entries on three unknown keys."""
    c = COALGEBRA_LIBRARY["dag"](QQ)
    for i in range(3):
        c.diff[("x", "y", -1, f"ghost{i}")] = {("x", "y", 0, "a"): QQ.one}
    return c


def _differential_off_slot():
    """dag with d of each of its three keys the key itself, one degree
    short."""
    c = COALGEBRA_LIBRARY["dag"](QQ)
    for k in list(c.reduced.keys()):
        c.diff[k] = {k: QQ.one}
    return c


def _curvature_on_unknown_keys():
    """dag with curvature on three unknown keys."""
    c = COALGEBRA_LIBRARY["dag"](QQ)
    for i in range(3):
        c.curv[("x", "x", -2, f"ghost{i}")] = QQ.one
    return c


def _twist_on_unknown_keys():
    """The identity of dag with a twist on three unknown keys."""
    m = identity_morphism(COALGEBRA_LIBRARY["dag"](QQ))
    for i in range(3):
        m.twist[("x", "x", -1, f"ghost{i}")] = QQ.one
    return m


# each hand-broken table and the problem it reports first
BROKEN = {
    _malformed_coalgebra: "comultiplication on unknown key",
    _malformed_morphism: "action on unknown key",
    _unknown_cofactors: "comultiplication of ('x', 'z', 0, 'm') leaves its "
                        "slot ('x', 'z', 0)",
    _differential_of_unknown_keys: "differential on unknown key",
    _differential_off_slot: "differential of ('x', 'y', 0, 'a') leaves its "
                            "slot ('x', 'y', 1)",
    _curvature_on_unknown_keys: "curvature on unknown key",
    _twist_on_unknown_keys: "twist on unknown key",
}


@pytest.mark.parametrize("build", list(BROKEN))
def test_cut_is_a_prefix_of_the_whole_report(build):
    """Hygiene failures past the cut are cut too: the report under any cap
    is the start of the report with none."""
    v = build()
    full = v.validate(NO_CAP)
    assert len(full) >= 3 and full[0].startswith(BROKEN[build])
    for n in range(4):
        assert v.validate(n) == full[:n]


def test_object_map_on_unknown_object_is_reported():
    m = identity_morphism(COALGEBRA_LIBRARY["dag"](QQ))
    m.object_map["ghost"] = "x"
    assert m.validate() == ["object map names unknown object 'ghost'"]
