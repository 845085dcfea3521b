"""The sparse validators against brute-force scans over the whole basis.

``DgCategory.validate`` and ``DgFunctor.validate`` visit only the cases a
stored table entry feeds.  The oracles below scan the whole basis: every
composable basis pair for Leibniz and for functor composition, every
composable basis triple for associativity.  Both must report the same
problems in the same order under the same cut, on valid inputs and on
inputs with one table entry bumped or dropped.

The reduced convolution validator runs the same table-driven passes on
its materialized tables; its oracle is the scan it replaced, over every
pair, triple and quadruple of object maps through the per-cochain
``comp_vec`` and ``diff_vec``, extended to vectors by ``conv_d`` and
``conv_star``, and of the outer term h_D o phi - phi o h_D through
``outer_curvature``, which composes basis arrows of D.  There the two
report the same failing cases, in their own orders.  A curved target
whose curvature is not central, ``noncentral_curvature``, keeps that
outer term nonzero.
"""

import pytest

from koszulcat import convmc, dgcat
from koszulcat.barcobar import cobar_construction
from koszulcat.coalgebra import PointedCoalgebra
from koszulcat.convmc import convolution_category, counit_data, mc_category
from koszulcat.dgcat import DgCategory, DgFunctor, identity_functor
from koszulcat.field import (GF, QQ, _apply, _compose, vec_add, vec_addmul,
                             vec_scale, vec_sub)
from koszulcat.quiver import GradedQuiver
from koszulcat.randgen import random_dg_category
from koszulcat.samples import (CATEGORY_LIBRARY, COALGEBRA_LIBRARY,
                               truncated_polynomial)
from test_convmc import _PAIRS

F3 = GF(3)


# -- the oracles -------------------------------------------------------------


def _vec_ok(c, vec, slot, problems, what, key):
    for k in vec:
        if (k[0], k[1], k[2]) != slot or not c.quiver.has_key(k):
            problems.append(f"{what} of {key!r} leaves its slot {slot}: {k!r}")


def oracle_category_problems(c, max_problems=25):
    problems = []
    F, Q = c.field, c.quiver

    def done():
        return len(problems) >= max_problems

    for x in Q.objects:
        u = c.unit.get(x, {})
        if not u:
            if Q.total_dim() > 0:
                problems.append(f"unit at {x!r} is zero in a nonzero category")
        elif c.apply_d(u):
            problems.append(f"unit at {x!r} is not closed")
        if c.apply_d(c.curvature_vec(x)):
            problems.append(f"curvature at {x!r} is not closed")
    if done():
        return problems
    for x, u in c.unit.items():
        if x not in Q.objects:
            problems.append(f"unit on unknown key {x!r}")
            continue
        _vec_ok(c, u, (x, x, 0), problems, "unit", x)
    for key, img in c.diff.items():
        if not Q.has_key(key):
            problems.append(f"differential on unknown key {key!r}")
            continue
        x, y, n, _ = key
        _vec_ok(c, img, (x, y, n + 1), problems, "differential", key)
    for (gk, fk), img in c.comp.items():
        if not Q.has_key(gk) or not Q.has_key(fk) or fk[1] != gk[0]:
            problems.append(f"composition on unknown key {(gk, fk)!r}")
            continue
        _vec_ok(c, img, (fk[0], gk[1], fk[2] + gk[2]), problems,
                "composition", (gk, fk))
    for x, h in c.curvature.items():
        if x not in Q.objects:
            problems.append(f"curvature on unknown key {x!r}")
            continue
        _vec_ok(c, h, (x, x, 2), problems, "curvature", x)
    if done():
        return problems

    keys = list(Q.keys())
    for k in keys:
        x, y, _, _ = k
        v = c.basis_vec(k)
        if c.compose(c.unit_vec(y), v) != v:
            problems.append(f"1 o {k} != {k}")
        if c.compose(v, c.unit_vec(x)) != v:
            problems.append(f"{k} o 1 != {k}")
        if done():
            return problems

    by_src = {}
    for k in keys:
        by_src.setdefault(k[0], []).append(k)
    for f in keys:
        for g in by_src.get(f[1], ()):
            gf = c.compose(c.basis_vec(g), c.basis_vec(f))
            for h in by_src.get(g[1], ()):
                hv = c.basis_vec(h)
                lhs = c.compose(hv, gf)
                rhs = c.compose(c.compose(hv, c.basis_vec(g)), c.basis_vec(f))
                if lhs != rhs:
                    problems.append(f"associativity fails on ({h}, {g}, {f})")
                    if done():
                        return problems

    for f in keys:
        fv = c.basis_vec(f)
        df = c.apply_d(fv)
        for g in by_src.get(f[1], ()):
            gv = c.basis_vec(g)
            lhs = c.apply_d(c.compose(gv, fv))
            rhs = vec_add(F, c.compose(c.apply_d(gv), fv),
                          vec_scale(F, F.coerce(-1) if g[2] % 2 else F.one,
                                    c.compose(gv, df)))
            if lhs != rhs:
                problems.append(f"Leibniz fails on ({g}, {f})")
                if done():
                    return problems

    for f in keys:
        x, y, _, _ = f
        fv = c.basis_vec(f)
        dd = c.apply_d(c.apply_d(fv))
        want = vec_sub(F, c.compose(c.curvature_vec(y), fv),
                       c.compose(fv, c.curvature_vec(x)))
        if dd != want:
            problems.append(f"d^2 on {f} does not match curvature bracket")
            if done():
                return problems
    return problems


def oracle_functor_problems(fn, max_problems=25):
    problems = []
    src, tgt, om = fn.source, fn.target, fn.object_map
    for x in src.quiver.objects:
        if om.get(x) not in tgt.quiver.objects:
            problems.append(f"object {x!r} has no valid image")
    if problems:
        return problems
    for k, img in fn.action.items():
        if not src.quiver.has_key(k):
            problems.append(f"action on unknown key {k!r}")
            continue
        x, y, n, _ = k
        for k2 in img:
            if (k2[0], k2[1], k2[2]) != (om[x], om[y], n) \
                    or not tgt.quiver.has_key(k2):
                problems.append(f"action of {k!r} leaves its slot "
                                f"{(om[x], om[y], n)}: {k2!r}")
    for x in src.quiver.objects:
        if fn.apply(src.unit_vec(x)) != tgt.unit_vec(om[x]):
            problems.append(f"unit at {x!r} not preserved")
        if fn.apply(src.curvature_vec(x)) != tgt.curvature_vec(om[x]):
            problems.append(f"curvature at {x!r} not preserved")
    keys = list(src.quiver.keys())
    for f in keys:
        fv = src.basis_vec(f)
        if fn.apply(src.apply_d(fv)) != tgt.apply_d(fn.apply(fv)):
            problems.append(f"differential not preserved on {f}")
        if len(problems) >= max_problems:
            return problems
    for f in keys:
        for g in keys:
            if f[1] != g[0]:
                continue
            fv, gv = src.basis_vec(f), src.basis_vec(g)
            lhs = fn.apply(src.compose(gv, fv))
            rhs = tgt.compose(fn.apply(gv), fn.apply(fv))
            if lhs != rhs:
                problems.append(f"composition not preserved on ({g}, {f})")
                if len(problems) >= max_problems:
                    return problems
    return problems


def conv_d(conv, vec):
    """d of a cochain vector, one ``diff_vec`` per basis cochain."""
    return _apply(conv.field, {k: conv.diff_vec(k) for k in vec}, vec)


def conv_star(conv, psi, phi):
    """psi * phi of cochain vectors, one ``comp_vec`` per basis pair."""
    return _compose(conv.field, {(kp, kf): conv.comp_vec(kp, kf)
                                 for kp in psi for kf in phi}, psi, phi)


def outer_curvature(conv, vec, post):
    """h_D o phi (post) or phi o h_D (pre) on a cochain vector, applied to
    its values one basis arrow of D at a time."""
    F, cat = conv.field, conv.cat
    out = {}
    for (fk, gk, n, (tag, row, dk)), c in vec.items():
        if post:
            dd = cat.compose(cat.curvature_vec(dk[1]), cat.basis_vec(dk))
        else:
            dd = cat.compose(cat.basis_vec(dk), cat.curvature_vec(dk[0]))
        for dk2, c2 in dd.items():
            key = (fk, gk, n + 2, (tag, row, dk2))
            out = vec_add(F, out, {key: F.mul(c, c2)})
    return out


def oracle_reduced_problems(conv, max_problems=25):
    """The full scan of the reduced convolution: d^2 identity per key,
    Leibniz per composable pair and associativity per composable triple
    of keys, over every tuple of object maps."""
    F = conv.field
    problems = []
    keyed = {}
    for fk in conv.object_maps:
        for gk in conv.object_maps:
            keyed[(fk, gk)] = conv.hom_keys(fk, gk)
    for (fk, gk), ks in keyed.items():
        hf = conv.curvature_vec(fk)
        hg = conv.curvature_vec(gk)
        for k in ks:
            one = {k: F.one}
            lhs = conv_d(conv, conv_d(conv, one))
            rhs = vec_sub(F, conv_star(conv, hg, one),
                          conv_star(conv, one, hf))
            rhs = vec_addmul(F, rhs, F.one, outer_curvature(conv, one, True))
            rhs = vec_addmul(F, rhs, F.coerce(-1),
                             outer_curvature(conv, one, False))
            if lhs != rhs:
                problems.append(f"d^2 identity fails on {k}")
                if len(problems) >= max_problems:
                    return problems
    maps = conv.object_maps
    for fk in maps:
        for gk in maps:
            for hk in maps:
                for kpsi in keyed[(gk, hk)]:
                    vpsi = {kpsi: F.one}
                    for kphi in keyed[(fk, gk)]:
                        vphi = {kphi: F.one}
                        lhs = conv_d(conv, conv.comp_vec(kpsi, kphi))
                        rhs = conv_star(conv, conv_d(conv, vpsi), vphi)
                        s = F.coerce(-1) if kpsi[2] % 2 else F.one
                        rhs = vec_addmul(F, rhs, s,
                                         conv_star(conv, vpsi,
                                                   conv_d(conv, vphi)))
                        if lhs != rhs:
                            problems.append(
                                f"Leibniz fails on ({kpsi}, {kphi})")
                            if len(problems) >= max_problems:
                                return problems
    for fk in maps:
        for gk in maps:
            for hk in maps:
                for ik in maps:
                    for kchi in keyed[(hk, ik)]:
                        vchi = {kchi: F.one}
                        for kpsi in keyed[(gk, hk)]:
                            inner = conv.comp_vec(kchi, kpsi)
                            for kphi in keyed[(fk, gk)]:
                                lhs = conv_star(conv, vchi,
                                                conv.comp_vec(kpsi, kphi))
                                rhs = conv_star(conv, inner, {kphi: F.one})
                                if lhs != rhs:
                                    problems.append(
                                        "associativity fails on "
                                        f"({kchi}, {kpsi}, {kphi})")
                                    if len(problems) >= max_problems:
                                        return problems
    return problems


# -- the corpus --------------------------------------------------------------


def noncentral_curvature(field):
    """A curved target whose curvature does not commute with an arrow.

    Objects 0 and 1; arrows f, m, g: 0 -> 1 in degrees 0, 1, 2 and
    t: 1 -> 1 in degree 2, with t o f = g, d f = m, d m = g and curvature
    h_1 = t, h_0 = 0.  Then h_1 o f - f o h_0 = g = d(d f): the outer
    terms h_D o phi - phi o h_D of the reduced convolution are nonzero.
    """
    quiver = GradedQuiver(("0", "1"), {
        ("0", "0", 0): ("e0",), ("1", "1", 0): ("e1",),
        ("0", "1", 0): ("f",), ("0", "1", 1): ("m",), ("0", "1", 2): ("g",),
        ("1", "1", 2): ("t",)})
    e0, e1 = ("0", "0", 0, "e0"), ("1", "1", 0, "e1")
    f, m, g = ("0", "1", 0, "f"), ("0", "1", 1, "m"), ("0", "1", 2, "g")
    t = ("1", "1", 2, "t")
    one = field.one
    comp = {(e0, e0): {e0: one}, (e1, e1): {e1: one}, (e1, t): {t: one},
            (t, e1): {t: one}, (t, f): {g: one}}
    for a in (f, m, g):
        comp[(e1, a)] = {a: one}
        comp[(a, e0)] = {a: one}
    return DgCategory(field, quiver, {"0": {e0: one}, "1": {e1: one}}, comp,
                      diff={f: {m: one}, m: {g: one}},
                      curvature={"1": {t: one}})


def _bumped(table, field):
    """A copy of ``table`` with one coefficient of its middle entry + 1."""
    out = {k: dict(v) for k, v in table.items()}
    if out:
        entry = out[list(out)[len(out) // 2]]
        k = next(iter(entry))
        entry[k] = field.add(entry[k], field.one)
    return out


def _variants(c):
    """``c`` as built, with one comp and with one diff coefficient bumped,
    and with one comp entry dropped (so one side of an identity can be
    0 for want of a stored entry)."""
    yield c
    F = c.field
    yield DgCategory(F, c.quiver, c.unit, _bumped(c.comp, F), c.diff,
                     c.curvature)
    if c.comp:
        comp = dict(c.comp)
        del comp[list(comp)[len(comp) // 2]]
        yield DgCategory(F, c.quiver, c.unit, comp, c.diff, c.curvature)
    if c.diff:
        yield DgCategory(F, c.quiver, c.unit, c.comp, _bumped(c.diff, F),
                         c.curvature)


def _categories():
    for field, tag in ((QQ, "q"), (F3, "f3")):
        for name in sorted(CATEGORY_LIBRARY):
            yield f"{name}:{tag}", CATEGORY_LIBRARY[name](field)
        for name in sorted(COALGEBRA_LIBRARY):
            coa = COALGEBRA_LIBRARY[name](field)
            yield f"cobar:{name}:{tag}", \
                cobar_construction(coa, length_cap=2).category
    for seed in range(30):
        field = QQ if seed % 2 else F3
        yield f"random:{seed}", random_dg_category(field, seed)
    conv = convolution_category(COALGEBRA_LIBRARY["curved_chain"](F3),
                                CATEGORY_LIBRARY["poly_diff"](F3))
    yield "convolution:curved_chain:poly_diff", conv.to_dg_category()
    # three labelled objects on one object map: keys carry labels
    mcc = mc_category(COALGEBRA_LIBRARY["neg_primitive"](F3),
                      CATEGORY_LIBRARY["contractible_endo"](F3))
    yield "mc_category:neg_primitive:contractible_endo", mcc.category
    for field, tag in ((QQ, "q"), (F3, "f3")):
        yield f"noncentral_curvature:{tag}", noncentral_curvature(field)
    # hand-broken: d of the unit, and curvature at an unknown object
    c = CATEGORY_LIBRARY["odd_pair_diff"](QQ)
    c.diff[("*", "*", 0, "e")] = {("*", "*", 1, "x"): QQ.one}
    yield "broken:unit_not_closed", c
    c = CATEGORY_LIBRARY["dual_numbers"](QQ)
    c.curvature["ghost"] = {("*", "*", 0, "x"): QQ.one}
    yield "broken:curvature_at_unknown_object", c


CATEGORIES = list(_categories())


@pytest.mark.parametrize("name,c", CATEGORIES, ids=[n for n, _ in CATEGORIES])
def test_category_validate_matches_full_scan(name, c):
    for v in _variants(c):
        full = oracle_category_problems(v)
        assert v.validate() == full
        if len(full) >= 2:  # else a cut at 2 never bites
            assert v.validate(2) == oracle_category_problems(v, 2)
        for n in (0, 1, 2):
            assert v.validate(n) == full[:n]


def _functors():
    for name in sorted(CATEGORY_LIBRARY):
        for field, tag in ((QQ, "q"), (F3, "f3")):
            d = CATEGORY_LIBRARY[name](field)
            if d.is_curved():
                continue
            yield f"identity:{name}:{tag}", identity_functor(d)
            for cap in (2, 3) if field is QQ else (2,):
                yield f"counit:{name}:{cap}:{tag}", counit_data(d, cap).functor
    fn = counit_data(CATEGORY_LIBRARY["trunc_poly3"](QQ), 3).functor
    action = {k: dict(v) for k, v in fn.action.items()}
    key = max(action, key=lambda k: len(k[3]))  # a longest live word
    action[key] = {k: QQ.add(c, QQ.one) for k, c in action[key].items()}
    yield "counit:trunc_poly3:3:bumped", \
        DgFunctor(fn.source, fn.target, fn.object_map, action)
    # a dead letter whose composites stay live: only stored pairs see it
    action = dict(fn.action)
    del action[min((k for k in action if k[3]), key=lambda k: len(k[3]))]
    yield "counit:trunc_poly3:3:dropped", \
        DgFunctor(fn.source, fn.target, fn.object_map, action)
    # hand-broken: units doubled, and the curvature arrow dropped
    fn = identity_functor(CATEGORY_LIBRARY["a2"](QQ))
    for k in fn.action:
        if k[3] in ("e0", "e1"):
            fn.action[k] = {k: QQ.coerce(2)}
    yield "broken:unit_not_preserved", fn
    fn = identity_functor(CATEGORY_LIBRARY["curved_nilpotent"](QQ))
    del fn.action[("*", "*", 2, "w")]
    yield "broken:curvature_not_preserved", fn


FUNCTORS = list(_functors())


@pytest.mark.parametrize("name,fn", FUNCTORS, ids=[n for n, _ in FUNCTORS])
def test_functor_validate_matches_full_scan(name, fn):
    full = oracle_functor_problems(fn)
    assert fn.validate() == full
    if len(full) >= 2:
        assert fn.validate(2) == oracle_functor_problems(fn, 2)
    for n in (0, 1, 2):
        assert fn.validate(n) == full[:n]


def test_corpus_exercises_failures():
    """The oracle comparison is only as strong as the failures it sees."""
    failing = [v for _, c in CATEGORIES for v in _variants(c) if v.validate()]
    assert len(failing) >= 40
    kinds = {m.split(" fails")[0] for v in failing for m in v.validate()}
    assert {"associativity", "Leibniz", "unit at '*' is not closed",
            "curvature on unknown key 'ghost'"} <= kinds
    reported = {m for _, fn in FUNCTORS for m in fn.validate()}
    assert {"unit at '0' not preserved",
            "curvature at '*' not preserved"} <= reported


# -- hygiene: reported entries are not visited -------------------------------


def test_entry_on_unknown_key_is_reported_not_raised():
    c = CATEGORY_LIBRARY["dual_numbers"](QQ)
    x = ("*", "*", 0, "x")
    ghost = ("*", "*", 0, "ghost")
    c.comp[(ghost, x)] = {x: QQ.one}
    assert any(m.startswith("composition on unknown key")
               for m in c.validate())
    assert identity_functor(c).validate() == []


def test_unit_and_object_map_on_unknown_object_are_reported():
    c = CATEGORY_LIBRARY["dual_numbers"](QQ)
    e = ("*", "*", 0, "e")
    c.unit["ghost"] = {e: QQ.one}
    assert c.validate() == ["unit on unknown key 'ghost'"]
    d = CATEGORY_LIBRARY["dual_numbers"](QQ)
    fn = identity_functor(d)
    fn.object_map["ghost"] = "*"
    assert fn.validate() == ["object map names unknown object 'ghost'"]


# -- the cut: validate(n) is the first n problems of the whole stream -------


def _malformed_category():
    """dual_numbers with d entries on three unknown keys."""
    c = CATEGORY_LIBRARY["dual_numbers"](QQ)
    x = ("*", "*", 0, "x")
    for i in range(3):
        c.diff[("*", "*", 0, f"ghost{i}")] = {x: QQ.one}
    return c


def _malformed_functor():
    """The identity of k[x]/(x^4) with three images off their slots."""
    fn = identity_functor(truncated_polynomial(QQ, 4))
    for k in list(fn.action)[1:4]:
        fn.action[k] = {("*", "*", 1, "ghost"): QQ.one}
    return fn


@pytest.mark.parametrize("build", [_malformed_category, _malformed_functor])
def test_cut_is_a_prefix_of_the_whole_report(build):
    """Hygiene failures past the cut are cut too: the report under any cap
    is the start of the report with none."""
    v = build()
    full = v.validate(10**9)
    assert len(full) >= 3
    for n in range(4):
        assert v.validate(n) == full[:n]


# -- the reduced convolution -------------------------------------------------


def _each_bumped(table, field):
    """A copy of ``table`` per coefficient, with that coefficient + 1."""
    for k, entry in table.items():
        for j in entry:
            out = {kk: dict(v) for kk, v in table.items()}
            out[k][j] = field.add(out[k][j], field.one)
            yield out


def _reduced_cases():
    """The validator pairs over Q and GF(3), each as built and with one
    coefficient bumped in the comultiplication or the differential of
    the coalgebra, or in the composition of the category; then the
    non-central curved target, as built and with its curvature bumped,
    under each one-object library coalgebra (the three objects of dag
    make the oracle's scan over object-map quadruples slow)."""
    for field, tag in ((QQ, "q"), (F3, "f3")):
        for cname, dname in _PAIRS:
            c = COALGEBRA_LIBRARY[cname](field)
            d = CATEGORY_LIBRARY[dname](field)
            name = f"{cname}:{dname}:{tag}"
            yield name, c, d
            for i, comult in enumerate(_each_bumped(c.comult, field)):
                yield f"{name}:comult{i}", PointedCoalgebra(
                    field, c.objects, c.reduced, comult, c.diff, c.curv), d
            for i, diff in enumerate(_each_bumped(c.diff, field)):
                yield f"{name}:diff{i}", PointedCoalgebra(
                    field, c.objects, c.reduced, c.comult, diff, c.curv), d
            for i, comp in enumerate(_each_bumped(d.comp, field)):
                yield f"{name}:comp{i}", c, DgCategory(
                    field, d.quiver, d.unit, comp, d.diff, d.curvature)
        d = noncentral_curvature(field)
        bumped = DgCategory(field, d.quiver, d.unit, d.comp, d.diff,
                            _bumped(d.curvature, field))
        for cname in sorted(COALGEBRA_LIBRARY):
            c = COALGEBRA_LIBRARY[cname](field)
            if len(c.objects) == 1:
                name = f"{cname}:noncentral_curvature:{tag}"
                yield name, c, d
                yield f"{name}:curvature", c, bumped


REDUCED = list(_reduced_cases())


@pytest.mark.parametrize("name,c,d", REDUCED, ids=[n for n, _, _ in REDUCED])
def test_reduced_validate_matches_full_scan(name, c, d):
    conv = convolution_category(c, d, reduced=True)
    full = oracle_reduced_problems(conv, max_problems=10**9)
    got = conv.validate(max_problems=10**9)
    assert sorted(got) == sorted(full)
    assert bool(conv.validate()) == bool(oracle_reduced_problems(conv))
    for n in (0, 1, 2):
        assert conv.validate(n) == got[:n]


def test_reduced_corpus_exercises_failures():
    reports = [convolution_category(c, d, reduced=True).validate(10**9)
               for _, c, d in REDUCED]
    assert sum(map(bool, reports)) >= 30
    kinds = {m.split(" fails")[0] for r in reports for m in r}
    assert kinds == {"d^2 identity", "Leibniz", "associativity"}


def test_noncentral_curvature_target():
    """The target validates, so do both of its convolutions under every
    library coalgebra, and its outer terms h_D o phi - phi o h_D are
    nonzero: a sign slip in them shows in the reduced validator."""
    for field in (QQ, F3):
        d = noncentral_curvature(field)
        assert d.validate() == []
        for cname in sorted(COALGEBRA_LIBRARY):
            c = COALGEBRA_LIBRARY[cname](field)
            for reduced in (False, True):
                conv = convolution_category(c, d, reduced=reduced)
                assert conv.validate() == []
        conv = convolution_category(COALGEBRA_LIBRARY["w"](field), d,
                                    reduced=True)
        one = {k: field.one for fk in conv.object_maps
               for gk in conv.object_maps for k in conv.hom_keys(fk, gk)}
        assert outer_curvature(conv, one, True) != \
            outer_curvature(conv, one, False)


# -- validators read entries -------------------------------------------------


def test_validators_compose_no_basis_vector(monkeypatch):
    """Every identity is read off stored entries, and so is the MC
    category's twisted differential: no validator and no ``mc_category``
    composes.  A per-basis-vector scan made 1,536 ``compose`` calls on
    the mc_category(dag, contractible_arrow) category alone."""
    dag = COALGEBRA_LIBRARY["dag"](F3)
    arrow = CATEGORY_LIBRARY["contractible_arrow"](F3)
    reduced = [convolution_category(COALGEBRA_LIBRARY["w"](field), d,
                                    reduced=True)
               for field in (QQ, F3)
               for d in (CATEGORY_LIBRARY["curved_nilpotent"](field),
                         noncentral_curvature(field))]
    calls = []
    for owner, name in ((DgCategory, "compose"), (dgcat, "_compose"),
                        (convmc, "_compose")):
        rule = getattr(owner, name)

        def counted(*args, rule=rule, name=name):
            calls.append(name)
            return rule(*args)
        monkeypatch.setattr(owner, name, counted)
    mcc = mc_category(dag, arrow)
    assert len(mcc.elements) > 1
    for c in [mcc.category] + [c for _, c in CATEGORIES]:
        c.validate()
    for conv in reduced:
        assert conv.validate() == []
    assert calls == []
