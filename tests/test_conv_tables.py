"""Convolution composition tables against the key-pair scan.

``ConvolutionCategory.tables`` calls ``comp_vec`` only on the pairs whose
D-arrows compose in D's stored table and whose rows can follow one
another, and ``hom_keys`` reads D's keys grouped by their ends.  The
oracles below are the loops they replaced: a scan of D's keys per row
for the hom bases, and ``comp_vec`` on every hom-key pair of every
labelled object triple.  Hom bases and the composition table must come
out equal, values and insertion order, with at most one ``comp_vec``
call per stored entry.
"""

import pytest

from koszulcat.barcobar import Splitting, bar_construction
from koszulcat.coalgebra import identity_morphism
from koszulcat.convmc import (convolution_category, mc_category,
                              mc_from_morphism)
from koszulcat.field import GF, QQ
from koszulcat.samples import (CATEGORY_LIBRARY, COALGEBRA_LIBRARY,
                               _with_unit_row, one_object_algebra)
from test_convmc import _PAIRS

F3 = GF(3)


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


def oracle_comp(conv, objects):
    keyed = {(lf, lg): [(lf, lg) + k[2:] for k in oracle_hom_keys(conv, fk, gk)]
             for lf, fk in objects for lg, gk in objects}
    comp = {}
    for lf, _ in objects:
        for lg, _ in objects:
            for lh, _ in objects:
                for kpsi in keyed[(lg, lh)]:
                    for kphi in keyed[(lf, lg)]:
                        v = conv.comp_vec(kpsi, kphi)
                        if v:
                            comp[(kpsi, kphi)] = v
    return keyed, comp


# -- the comparison ----------------------------------------------------------


def _counted_tables(conv, objects):
    """``conv.tables(objects)`` and the number of comp_vec calls it made."""
    calls = [0]
    rule = conv.comp_vec

    def counted(kpsi, kphi):
        calls[0] += 1
        return rule(kpsi, kphi)

    conv.comp_vec = counted
    try:
        return conv.tables(objects), calls[0]
    finally:
        del conv.comp_vec


def _assert_matches_scan(conv, objects):
    (_, _, comp, _, _, keyed), calls = _counted_tables(conv, objects)
    want_keyed, want_comp = oracle_comp(conv, objects)
    assert keyed == want_keyed
    assert list(comp.items()) == list(want_comp.items())
    assert calls <= len(comp)
    return comp


@pytest.mark.parametrize("cname,dname", _PAIRS)
@pytest.mark.parametrize("reduced", [False, True], ids=["full", "reduced"])
@pytest.mark.parametrize("field", [QQ, F3], ids=["q", "f3"])
def test_comp_table_matches_key_pair_scan(cname, dname, reduced, field):
    conv = convolution_category(COALGEBRA_LIBRARY[cname](field),
                                CATEGORY_LIBRARY[dname](field), reduced=reduced)
    comp = _assert_matches_scan(conv, [(fk, fk) for fk in conv.object_maps])
    if not reduced:
        assert comp  # the units compose, so the table is never empty


def test_comp_table_matches_scan_on_labelled_objects():
    # three MC elements on one object map: labels keep their homs apart
    mcc = mc_category(COALGEBRA_LIBRARY["neg_primitive"](F3),
                      CATEGORY_LIBRARY["contractible_endo"](F3))
    objects = [(("mc", i), om) for i, om in enumerate(mcc.object_maps)]
    assert len(objects) == 3 and len(set(mcc.object_maps)) == 1
    comp = _assert_matches_scan(mcc.convolution, objects)
    assert list(comp.items()) == list(mcc.category.comp.items())


def test_bar_mc_category_calls_comp_vec_once_per_entry():
    """The one-element MC category of the weight-4 bar of
    A = k<x,y>/(x^2, y^2, yx) at its universal twisting cochain: the scan
    made 484^2 = 234,256 comp_vec calls for 4,376 entries."""
    names = ["e", "x", "y", "xy"]
    mult = _with_unit_row(names)
    mult[("x", "y")] = {"xy": 1}
    a = one_object_algebra(F3, {n: 0 for n in names}, mult)
    sp = Splitting(a)
    bar = bar_construction(a, 4, splitting=sp)
    m = mc_from_morphism(identity_morphism(bar), sp)
    conv = mc_category(bar, a, elements=[m]).convolution
    (quiver, _, comp, _, _, _), calls = _counted_tables(
        conv, [(("mc", 0), conv.object_maps[0])])
    assert quiver.total_dim() == 484
    assert len(comp) == 4376
    assert calls == 4376
