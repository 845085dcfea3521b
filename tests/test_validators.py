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
``conv_star``.  There the two report the same failing cases, in their own
orders.
"""

import pytest

from koszulcat.barcobar import cobar_construction
from koszulcat.coalgebra import PointedCoalgebra
from koszulcat.convmc import convolution_category, counit_data
from koszulcat.dgcat import DgCategory, DgFunctor, identity_functor
from koszulcat.field import (GF, QQ, _apply, _compose, vec_add, vec_addmul,
                             vec_scale, vec_sub)
from koszulcat.randgen import random_dg_category
from koszulcat.samples import CATEGORY_LIBRARY, COALGEBRA_LIBRARY
from test_convmc import _PAIRS

F3 = GF(3)


# -- the oracles -------------------------------------------------------------


def _vec_ok(c, vec, slot, problems, what):
    for k in vec:
        if (k[0], k[1], k[2]) != slot or not c.quiver.has_key(k):
            problems.append(f"{what}: component {k} outside slot {slot}")


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
            continue
        _vec_ok(c, u, (x, x, 0), problems, f"unit at {x!r}")
        if c.apply_d(u):
            problems.append(f"unit at {x!r} is not closed")
    if done():
        return problems
    for key, img in c.diff.items():
        if not Q.has_key(key):
            problems.append(f"differential of unknown key {key}")
            continue
        x, y, n, _ = key
        _vec_ok(c, img, (x, y, n + 1), problems, f"d{key}")
    for (gk, fk), img in c.comp.items():
        if not Q.has_key(gk) or not Q.has_key(fk):
            problems.append(f"composition entry on unknown keys {gk}, {fk}")
            continue
        fx, fy, fn, _ = fk
        gx, gy, gn, _ = gk
        if fy != gx:
            problems.append(f"composition of non-composable pair {gk} o {fk}")
            continue
        _vec_ok(c, img, (fx, gy, fn + gn), problems, f"{gk} o {fk}")
    for x, h in c.curvature.items():
        if x not in Q.objects:
            problems.append(f"curvature at unknown object {x!r}")
            continue
        _vec_ok(c, h, (x, x, 2), problems, f"curvature at {x!r}")
        if c.apply_d(h):
            problems.append(f"curvature at {x!r} is not closed")
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
            problems.append(f"action on unknown key {k}")
            continue
        x, y, n, _ = k
        for k2 in img:
            if (k2[0], k2[1], k2[2]) != (om[x], om[y], n) \
                    or not tgt.quiver.has_key(k2):
                problems.append(f"image of {k} leaves its slot")
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
            rhs = vec_addmul(F, rhs, F.one, conv._outer_curvature(one, True))
            rhs = vec_addmul(F, rhs, F.coerce(-1),
                             conv._outer_curvature(one, False))
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


CATEGORIES = list(_categories())


@pytest.mark.parametrize("name,c", CATEGORIES, ids=[n for n, _ in CATEGORIES])
def test_category_validate_matches_full_scan(name, c):
    for v in _variants(c):
        full = oracle_category_problems(v)
        assert v.validate() == full
        if len(full) >= 2:  # else a cut at 2 never bites
            assert v.validate(2) == oracle_category_problems(v, 2)


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


FUNCTORS = list(_functors())


@pytest.mark.parametrize("name,fn", FUNCTORS, ids=[n for n, _ in FUNCTORS])
def test_functor_validate_matches_full_scan(name, fn):
    full = oracle_functor_problems(fn)
    assert fn.validate() == full
    if len(full) >= 2:
        assert fn.validate(2) == oracle_functor_problems(fn, 2)


def test_corpus_exercises_failures():
    """The oracle comparison is only as strong as the failures it sees."""
    failing = [v for _, c in CATEGORIES for v in _variants(c) if v.validate()]
    assert len(failing) >= 40
    kinds = {m.split(" fails")[0] for v in failing for m in v.validate()}
    assert {"associativity", "Leibniz"} <= kinds
    assert any(fn.validate() for _, fn in FUNCTORS)


# -- hygiene: reported entries are not visited -------------------------------


def test_entry_on_unknown_key_is_reported_not_raised():
    c = CATEGORY_LIBRARY["dual_numbers"](QQ)
    x = ("*", "*", 0, "x")
    ghost = ("*", "*", 0, "ghost")
    c.comp[(ghost, x)] = {x: QQ.one}
    assert any(m.startswith("composition entry on unknown keys")
               for m in c.validate())
    assert identity_functor(c).validate() == []


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
    the coalgebra, or in the composition of the category."""
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


REDUCED = list(_reduced_cases())


@pytest.mark.parametrize("name,c,d", REDUCED, ids=[n for n, _, _ in REDUCED])
def test_reduced_validate_matches_full_scan(name, c, d):
    conv = convolution_category(c, d, reduced=True)
    full = oracle_reduced_problems(conv, max_problems=10**9)
    assert sorted(conv.validate(max_problems=10**9)) == sorted(full)
    assert bool(conv.validate()) == bool(oracle_reduced_problems(conv))


def test_reduced_corpus_exercises_failures():
    reports = [convolution_category(c, d, reduced=True).validate(10**9)
               for _, c, d in REDUCED]
    assert sum(map(bool, reports)) >= 30
    kinds = {m.split(" fails")[0] for r in reports for m in r}
    assert kinds == {"d^2 identity", "Leibniz", "associativity"}
