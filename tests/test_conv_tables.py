"""Convolution composition tables against the key-pair scan.

``ConvolutionCategory`` derives its tables from one row list and the
transpose of Delta over it: ``hom_keys`` reads D's keys grouped by their
ends, ``comp_vec`` is one sum over the transpose, and ``tables`` calls it
only on the pairs whose D-arrows compose in D's stored table and whose
rows are a key of the transpose.  The oracles below spell the rule out
case by case: a scan of D's keys per row for the hom bases, the product
split into grouplike and reduced rows, and that product on every hom-key
pair of every labelled object triple.  Hom bases, products and the
composition table must come out equal, values and insertion order, with
at most one ``comp_vec`` call per stored entry.  The reduced tables are
the counital ones restricted to the reduced rows.  The MC category's
twisted differential, which ``diff_vec`` writes from one ``comp_vec``
call per term of the MC elements, must equal the key-by-key loop that
composes each basis cochain with the MC elements at its two ends through
the stored composition table; on one hom it needs no table at all.
"""

from contextlib import contextmanager
from functools import lru_cache

import pytest

from koszulcat.barcobar import bar_construction
from koszulcat.coalgebra import identity_morphism
from koszulcat.convmc import (convolution_category, mc_category,
                              mc_from_morphism)
from koszulcat.field import GF, QQ, _compose, vec_addmul
from koszulcat.samples import (CATEGORY_LIBRARY, COALGEBRA_LIBRARY,
                               category_by_names)
from test_convmc import _PAIRS

F3 = GF(3)
# curved_chain_flipped is the one library source whose reduced products
# carry an odd sign (-1)^{(|phi| + |c1|) |c2|}
_CORPUS = _PAIRS + [("curved_chain_flipped", "exterior_line")]


# -- the oracles -------------------------------------------------------------


def oracle_hom_keys(conv, fk, gk):
    out = []
    dkeys = list(conv.cat.quiver.keys())
    if not conv.reduced:
        for i, x in enumerate(conv.coalgebra.objects):
            for dk in dkeys:
                if dk[0] == fk[i] and dk[1] == gk[i]:
                    out.append((fk, gk, dk[2], ("o", x, dk)))
    for ck in conv.coalgebra.reduced.keys():
        fx = conv.om_value(fk, ck[0])
        gy = conv.om_value(gk, ck[1])
        for dk in dkeys:
            if dk[0] == fx and dk[1] == gy:
                out.append((fk, gk, dk[2] - ck[2], ("r", ck, dk)))
    return out


@lru_cache(maxsize=4)
def _rdelta_transpose(coalgebra):
    t = {}
    for c, terms in coalgebra.comult.items():
        for (a, b), coeff in terms.items():
            t.setdefault((a, b), []).append((c, coeff))
    return t


def oracle_comp_vec(conv, kpsi, kphi):
    """psi * phi case by case: grouplike or reduced rows on either side."""
    fk, gmid, p, nphi = kphi
    gmid2, hk, q, npsi = kpsi
    if gmid2 != gmid:
        return {}
    F = conv.field
    dphi, dpsi = nphi[2], npsi[2]
    if dphi[1] != dpsi[0]:
        return {}
    dd = conv.cat.comp.get((dpsi, dphi))
    if not dd:
        return {}
    n = p + q
    if nphi[0] == "o" and npsi[0] == "o":
        if nphi[1] != npsi[1]:
            return {}
        return {(fk, hk, n, ("o", nphi[1], dk2)): c
                for dk2, c in dd.items()}
    if nphi[0] == "o":
        # phi eats the canonical grouplike at the source of psi's row
        ck = npsi[1]
        if conv.reduced or nphi[1] != ck[0]:
            return {}
        neg = (p * ck[2]) % 2 == 1
        return {(fk, hk, n, ("r", ck, dk2)): F.neg(c) if neg else c
                for dk2, c in dd.items()}
    if npsi[0] == "o":
        ck = nphi[1]
        if conv.reduced or npsi[1] != ck[1]:
            return {}
        return {(fk, hk, n, ("r", ck, dk2)): c for dk2, c in dd.items()}
    a, b = nphi[1], npsi[1]
    out = {}
    for crow, lam in _rdelta_transpose(conv.coalgebra).get((a, b), ()):
        coeff = F.neg(lam) if ((p + a[2]) * b[2]) % 2 else lam
        for dk2, c in dd.items():
            out[(fk, hk, n, ("r", crow, dk2))] = F.mul(coeff, c)
    return out


def oracle_twisted_diff(mcc):
    """d + xi' . phi - (-1)^|phi| phi . xi, two compositions of the basis
    vector phi with the MC elements xi (source) and xi' (target) per
    hom key."""
    conv, F = mcc.convolution, mcc.convolution.field
    labels = [("mc", i) for i in range(len(mcc.elements))]
    _, _, comp, plain, _, keyed = conv.tables(
        [(lab, om, {}) for lab, om in zip(labels, mcc.object_maps)])
    xvs = {lab: {(lab, lab, 1, ("r", ck, dk)): coeff
                 for ck, v in m.xi.items() for dk, coeff in v.items()}
           for lab, m in zip(labels, mcc.elements)}
    diff = {}
    for (li, lj), ks in keyed.items():
        for k in ks:
            one = {k: F.one}
            v = vec_addmul(F, plain.get(k, {}), F.one,
                           _compose(F, comp, xvs[lj], one))
            s = F.one if k[2] % 2 else F.coerce(-1)
            v = vec_addmul(F, v, s, _compose(F, comp, one, xvs[li]))
            if v:
                diff[k] = v
    return diff


def _composable_pairs(keyed, objects):
    for lf, _, _ in objects:
        for lg, _, _ in objects:
            for lh, _, _ in objects:
                for kpsi in keyed[(lg, lh)]:
                    for kphi in keyed[(lf, lg)]:
                        yield kpsi, kphi


def oracle_comp(conv, objects):
    keyed = {(lf, lg): [(lf, lg) + k[2:] for k in oracle_hom_keys(conv, fk, gk)]
             for lf, fk, _ in objects for lg, gk, _ in objects}
    comp = {}
    for kpsi, kphi in _composable_pairs(keyed, objects):
        v = oracle_comp_vec(conv, kpsi, kphi)
        if v:
            comp[(kpsi, kphi)] = v
    return keyed, comp


# -- the comparison ----------------------------------------------------------


@contextmanager
def _comp_vec_calls(conv):
    """The (psi, phi) pairs of each ``conv.comp_vec`` call in the block."""
    calls, rule = [], conv.comp_vec

    def recorded(kpsi, kphi):
        calls.append((kpsi, kphi))
        return rule(kpsi, kphi)

    conv.comp_vec = recorded
    try:
        yield calls
    finally:
        del conv.comp_vec


def _counted_tables(conv, objects):
    """``conv.tables(objects)`` and the number of comp_vec calls it made."""
    with _comp_vec_calls(conv) as calls:
        return conv.tables(objects), len(calls)


def _assert_matches_scan(conv, objects):
    (_, _, comp, _, _, keyed), calls = _counted_tables(conv, objects)
    want_keyed, want_comp = oracle_comp(conv, objects)
    assert keyed == want_keyed
    assert list(comp.items()) == list(want_comp.items())
    assert calls <= len(comp)
    return comp


def _conv(cname, dname, field, reduced=False):
    return convolution_category(COALGEBRA_LIBRARY[cname](field),
                                CATEGORY_LIBRARY[dname](field), reduced=reduced)


def _neg_primitive_mc_category():
    # three MC elements on one object map: labels keep their homs apart
    return mc_category(COALGEBRA_LIBRARY["neg_primitive"](F3),
                       CATEGORY_LIBRARY["contractible_endo"](F3))


def _assert_comp_vec_matches_oracle(conv, objects):
    keyed, _ = oracle_comp(conv, objects)
    for kpsi, kphi in _composable_pairs(keyed, objects):
        assert list(conv.comp_vec(kpsi, kphi).items()) == \
            list(oracle_comp_vec(conv, kpsi, kphi).items()), (kpsi, kphi)


@pytest.mark.parametrize("cname,dname", _CORPUS)
@pytest.mark.parametrize("reduced", [False, True], ids=["full", "reduced"])
@pytest.mark.parametrize("field", [QQ, F3], ids=["q", "f3"])
def test_comp_vec_matches_case_by_case_oracle(cname, dname, reduced, field):
    conv = _conv(cname, dname, field, reduced)
    _assert_comp_vec_matches_oracle(conv,
                                    [(fk, fk, {}) for fk in conv.object_maps])


def test_comp_vec_matches_oracle_on_labelled_objects():
    mcc = _neg_primitive_mc_category()
    _assert_comp_vec_matches_oracle(
        mcc.convolution,
        [(("mc", i), om, {}) for i, om in enumerate(mcc.object_maps)])


def test_corpus_has_odd_reduced_pair_signs():
    # a sign slip on reduced rows shows only where an entry is odd
    odd = 0
    for cname, dname in _CORPUS:
        conv = _conv(cname, dname, F3, reduced=True)
        _, _, comp, _, _, _ = conv._object_tables()
        for kpsi, kphi in comp:
            odd += (kphi[2] + kphi[3][1][2]) * kpsi[3][1][2] % 2
    assert odd


@pytest.mark.parametrize("cname,dname", _CORPUS)
@pytest.mark.parametrize("field", [QQ, F3], ids=["q", "f3"])
def test_reduced_tables_restrict_the_counital_ones(cname, dname, field):
    """{C-bar, D} is {C, D} on the reduced rows: no product or
    differential of reduced cochains reaches a grouplike row."""
    _, _, comp, diff, curv, keyed = _conv(cname, dname, field)._object_tables()
    _, unit, rcomp, rdiff, rcurv, rkeyed = _conv(
        cname, dname, field, reduced=True)._object_tables()

    def kept(k):
        return k[3][0] == "r"

    assert unit == {}
    assert list(rkeyed.items()) == [
        (pq, [k for k in ks if kept(k)]) for pq, ks in keyed.items()]
    assert list(rcomp.items()) == [
        (gf, v) for gf, v in comp.items() if kept(gf[0]) and kept(gf[1])]
    assert list(rdiff.items()) == [(k, v) for k, v in diff.items() if kept(k)]
    assert [(fk, list(v.items())) for fk, v in rcurv.items()] == [
        (fk, [(k, c) for k, c in v.items() if kept(k)])
        for fk, v in curv.items()]


@pytest.mark.parametrize("cname,dname", _CORPUS)
@pytest.mark.parametrize("reduced", [False, True], ids=["full", "reduced"])
@pytest.mark.parametrize("field", [QQ, F3], ids=["q", "f3"])
def test_comp_table_matches_key_pair_scan(cname, dname, reduced, field):
    conv = _conv(cname, dname, field, reduced)
    comp = _assert_matches_scan(conv,
                                [(fk, fk, {}) for fk in conv.object_maps])
    if not reduced:
        assert comp  # the units compose, so the table is never empty


def test_comp_table_matches_scan_on_labelled_objects():
    mcc = _neg_primitive_mc_category()
    objects = [(("mc", i), om, {}) for i, om in enumerate(mcc.object_maps)]
    assert len(objects) == 3 and len(set(mcc.object_maps)) == 1
    comp = _assert_matches_scan(mcc.convolution, objects)
    assert list(comp.items()) == list(mcc.category.comp.items())


def _identity_mc_category(dname, field):
    """The one-element MC*(BD, D) at the identity of BD, the bar taken at
    weight 4: its one hom is the Hochschild cochain complex of D."""
    d = CATEGORY_LIBRARY[dname](field)
    bar = bar_construction(d, 4)
    return mc_category(bar, d,
                       elements=[mc_from_morphism(identity_morphism(bar))])


@pytest.mark.parametrize("cname,dname,field", [
    pytest.param(cname, dname, F3, id=f"{cname}-{dname}") for cname, dname in [
        ("neg_primitive", "contractible_endo"),
        ("curved_chain", "contractible_endo"),
        ("dag", "contractible_arrow")]] + [
    pytest.param("bar", dname, field, id=f"bar-{dname}-{field.name}")
    for dname in ("trunc_poly3", "dual_numbers") for field in (F3, QQ)])
def test_twisted_diff_matches_key_by_key_loop(cname, dname, field):
    if cname == "bar":
        mcc = _identity_mc_category(dname, field)
        assert len(mcc.elements) == 1
    else:
        mcc = mc_category(COALGEBRA_LIBRARY[cname](field),
                          CATEGORY_LIBRARY[dname](field))
        assert len(mcc.elements) > 1
    if cname == "curved_chain":  # a xi of several terms sums them per key
        assert max(sum(map(len, m.xi.values())) for m in mcc.elements) == 3
    assert list(mcc.category.diff.items()) == \
        list(oracle_twisted_diff(mcc).items())


@pytest.mark.parametrize("dname", ["trunc_poly3", "dual_numbers"])
@pytest.mark.parametrize("field", [QQ, F3], ids=["q", "f3"])
def test_end_of_xi_needs_only_hom_keys_and_diff_vec(dname, field):
    """End(xi) of the identity element, read one hom key at a time with
    no table: ``diff_vec`` gives the MC category's d on that hom, and
    every product it reads has xi on one side."""
    mcc = _identity_mc_category(dname, field)
    conv, (m,), (om,) = mcc.convolution, mcc.elements, mcc.object_maps
    (lab,) = mcc.category.quiver.objects
    with _comp_vec_calls(conv) as calls:
        got = [(k, conv.diff_vec(k, m.xi, m.xi))
               for k in conv.hom_keys(om, om)]
    got = [(k, v) for k, v in got if v]

    def at(k):
        return (lab, lab) + k[2:]

    assert [(at(k), {at(k2): c for k2, c in v.items()}) for k, v in got] \
        == list(mcc.category.diff.items())
    xi = {(om, om, 1, ("r", ck, dk)) for ck, v in m.xi.items() for dk in v}
    assert calls and all(kpsi in xi or kphi in xi for kpsi, kphi in calls)


def test_bar_mc_category_calls_comp_vec_once_per_entry():
    """The one-element MC category of the weight-4 bar of
    A = k<x,y>/(x^2, y^2, yx) at its universal twisting cochain: the scan
    made 484^2 = 234,256 comp_vec calls for 4,376 entries."""
    names = ["e", "x", "y", "xy"]
    a = category_by_names(F3, {n: 0 for n in names}, {("x", "y"): {"xy": 1}})
    bar = bar_construction(a, 4)
    m = mc_from_morphism(identity_morphism(bar))
    conv = mc_category(bar, a, elements=[m]).convolution
    (quiver, _, comp, _, _, _), calls = _counted_tables(
        conv, [(("mc", 0), conv.object_maps[0], {})])
    assert quiver.total_dim() == 484
    assert len(comp) == 4376
    assert calls == 4376
