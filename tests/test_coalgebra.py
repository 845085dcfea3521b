"""Pointed curved coalgebras: axioms, filtration, tensor, morphisms.

curved_chain / curved_chain_flipped pin the sign of the curvature
coaction in d^2 = (h (x) id - id (x) h) rDelta: the two samples differ
only in which cofactor carries h, and their differentials differ by the
induced sign.  cancel_coalgebra pins the conilpotence fallback.
"""

import random

import pytest

from koszulcat import coalgebra
from koszulcat.barcobar import bar_construction
from koszulcat.coalgebra import (
    CoalgebraMorphism,
    PointedCoalgebra,
    associated_graded,
    compose_morphisms,
    cotensor_coalgebra,
    identity_morphism,
    point_coalgebra,
    tensor_coalgebras,
    zero_coalgebra,
)
from koszulcat.field import GF, QQ
from koszulcat.matrix import SparseMatrix
from koszulcat.quiver import GradedQuiver
from koszulcat.randgen import random_coalgebra
from koszulcat.samples import (
    CATEGORY_LIBRARY,
    COALGEBRA_LIBRARY,
    cancel_coalgebra,
    coalgebra_by_names,
    curved_chain,
    dag_coalgebra,
    primitive_pair,
    w_coalgebra,
)

FIELDS = [QQ, GF(2), GF(3), GF(5)]


# -- library + sentinels -----------------------------------------------------


@pytest.mark.parametrize("name", sorted(COALGEBRA_LIBRARY))
@pytest.mark.parametrize("field", FIELDS, ids=["q", "f2", "f3", "f5"])
def test_library_validates(name, field):
    c = COALGEBRA_LIBRARY[name](field)
    assert c.validate() == []


def test_sentinels():
    assert zero_coalgebra(QQ).validate() == []
    assert point_coalgebra(QQ).validate() == []
    assert point_coalgebra(QQ).objects == ("pt",)


def test_curved_flags():
    assert w_coalgebra(QQ).is_curved()
    assert not dag_coalgebra(QQ).is_curved()


# -- the d^2 sign is really pinned ------------------------------------------


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["q", "f3"])
def test_curvature_coaction_sign(field):
    # flipping the differential sign on e must break validation: d^2(c)
    # = -u is forced by rDelta(c) = u (x) w, h(w) = 1 (right cofactor,
    # minus sign)
    bad = coalgebra_by_names(
        field,
        {"c": -3, "e": -2, "u": -1, "w": -2},
        comult={"c": {("u", "w"): 1}},
        diff={"c": {"e": 1}, "e": {"u": 1}},  # wrong sign
        curv={"w": 1},
    )
    assert any("d^2" in m for m in bad.validate())
    good = curved_chain(field)
    assert good.validate() == []


def test_h_after_d_vanishes_checked():
    bad = coalgebra_by_names(
        QQ,
        {"s": -3, "w": -2},
        diff={"s": {"w": 1}},
        curv={"w": 1},
    )
    assert any("h o d" in m for m in bad.validate())


def test_curvature_support_checked():
    bad = coalgebra_by_names(QQ, {"u": -1}, curv={"u": 1})
    assert any("degree -2" in m for m in bad.validate())


# -- validator catches structural corruption ---------------------------------


def test_validator_catches_noncoassociative():
    c = coalgebra_by_names(
        QQ,
        {"m": 0, "a": 0},
        comult={"m": {("a", "m"): 1}},  # (D(x)1)D(m) = 0 but (1(x)D)D(m) != 0
    )
    msgs = c.validate()
    assert any("coassociative" in m or "conilpotent" in m for m in msgs)


def test_validator_catches_grouplike_in_reduced():
    # rDelta(g) = g (x) g is the classic grouplike hiding in the
    # "reduced" part; conilpotence rejects it
    c = coalgebra_by_names(QQ, {"g": 0}, comult={"g": {("g", "g"): 1}})
    assert any("conilpotent" in m for m in c.validate())


def test_validator_catches_co_leibniz():
    c = coalgebra_by_names(
        QQ,
        {"m": 0, "a": 0, "b": 1},
        comult={"m": {("a", "a"): 1}},
        diff={"a": {"b": 1}},  # d(m) = 0 but rDelta(dm) != (d(x)1 + 1(x)d)rDelta m
    )
    assert any("co-Leibniz" in m for m in c.validate())


def test_validator_catches_degree_drift():
    c = coalgebra_by_names(
        QQ, {"m": 0, "a": 1}, comult={"m": {("a", "a"): 1}}
    )
    assert any("leaves its slot" in m for m in c.validate())


def test_validator_catches_bad_middle_object():
    q = GradedQuiver(
        ("x", "y"),
        {("x", "y", 0): ("m",), ("x", "x", 0): ("a",), ("y", "y", 0): ("b",)},
    )
    m = ("x", "y", 0, "m")
    a = ("x", "x", 0, "a")
    b = ("y", "y", 0, "b")
    c = PointedCoalgebra(QQ, ("x", "y"), q, {m: {(b, a): QQ.one}})
    assert any("leaves its slot" in s for s in c.validate())


# -- deconcat / iterated comultiplication ------------------------------------


def test_deconcat_on_word_coalgebra():
    gen = GradedQuiver(
        ("x", "y", "z"), {("x", "y", 0): ("a",), ("y", "z", 1): ("b",)}
    )
    c = cotensor_coalgebra(QQ, gen)
    assert c.validate() == []
    ab = ("x", "z", 1, ("a", "b"))
    one = QQ.one
    assert c.deconcat(ab, 1) == {(ab,): one}
    assert c.deconcat(ab, 2) == {
        ((("x", "y", 0, ("a",)), ("y", "z", 1, ("b",)))): one
    }
    assert c.deconcat(ab, 3) == {}


def test_cotensor_weight_cap_is_subcoalgebra():
    gen = GradedQuiver(("x",), {("x", "x", 0): ("v",)})
    c = cotensor_coalgebra(QQ, gen, max_weight=3)
    assert c.validate() == []
    assert c.reduced.total_dim() == 3
    vvv = ("x", "x", 0, ("v", "v", "v"))
    assert len(c.comult[vvv]) == 2
    with pytest.raises(ValueError):
        cotensor_coalgebra(QQ, gen)  # cyclic without a cap


def test_cotensor_rejects_negative_cap():
    gen = GradedQuiver(("x",), {("x", "x", 0): ("v",)})
    with pytest.raises(ValueError, match="max_weight="):
        cotensor_coalgebra(QQ, gen, max_weight=-1)


# -- coradical filtration and gr --------------------------------------------


def test_filtration_on_words():
    gen = GradedQuiver(("x",), {("x", "x", 0): ("v",)})
    c = cotensor_coalgebra(QQ, gen, max_weight=3)
    stages = c.coradical_filtration()
    assert [len(s) for s in stages] == [1, 1, 1]
    # stage 0 is the primitives: the single letter
    ((_, v0),) = stages[0]
    assert set(v0) == {("x", "x", 0, ("v",))}


def test_filtration_certifies_cancel_coalgebra():
    c = cancel_coalgebra(QQ)
    assert not c._factor_graph_acyclic()
    assert c._conilpotent()
    assert c.validate() == []
    stages = c.coradical_filtration()
    assert [len(s) for s in stages] == [1, 1]


def test_filtration_detects_grouplike():
    c = coalgebra_by_names(QQ, {"g": 0}, comult={"g": {("g", "g"): 1}})
    stages = c.coradical_filtration()
    assert sum(len(s) for s in stages) == 0


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["q", "f3"])
def test_filtration_stalls_after_one_stage(field):
    # p is primitive, g a grouplike hiding in the reduced part: F_1 =
    # span(p) and F_2 = F_1, so the filtration stalls short of C
    c = coalgebra_by_names(field, {"p": 0, "g": 0},
                              comult={"g": {("g", "g"): 1}})
    assert [len(s) for s in c.coradical_filtration()] == [1]
    assert not c._conilpotent()
    assert any("not conilpotent" in m for m in c.validate())
    with pytest.raises(ValueError, match="needs a conilpotent coalgebra"):
        associated_graded(c)


def oracle_coradical_filtration(c):
    """Generator-column filtration: F_{k+1} is the key part of the kernel
    of [rDelta | -(b (x) v)], one generator column b (x) v per basis key b
    and vector v spanning F_k, over every pair coordinate either side can
    touch.  Returns F_1, F_2, ... as spanning lists until the dimension
    stalls."""
    F = c.field
    keys = sorted(c.reduced.keys(), key=repr)
    kpos = {k: i for i, k in enumerate(keys)}
    pairs = set()
    for ps in c.comult.values():
        pairs.update(ps)
    spans, span = [], []
    while keys:
        gens = [{(b, a): x for a, x in v.items()} for v in span for b in keys]
        ambient = set(pairs)
        for g in gens:
            ambient.update(g)
        arow = {p: i for i, p in enumerate(sorted(ambient, key=repr))}
        entries = {}
        for k in keys:
            for p, x in c.delta(k).items():
                entries[(arow[p], kpos[k])] = x
        for j, g in enumerate(gens):
            for p, x in g.items():
                entries[(arow[p], len(keys) + j)] = F.neg(x)
        big = SparseMatrix(F, len(arow), len(keys) + len(gens), entries)
        nxt = [{keys[j]: x for j, x in kv.items() if j < len(keys)}
               for kv in big.kernel_basis()]
        nxt = [v for v in nxt if v]
        if len(span_rows(F, keys, nxt)) == len(span_rows(F, keys, span)):
            break
        spans.append(nxt)
        span = nxt
    return spans


def span_rows(F, keys, vecs):
    # rref rows of span(vecs) over the key order: equal spans, equal rows
    kpos = {k: i for i, k in enumerate(keys)}
    m = SparseMatrix(F, len(vecs), len(keys), {
        (i, kpos[k]): x for i, v in enumerate(vecs) for k, x in v.items()})
    R, pivots = m.rref()
    rows = [{} for _ in pivots]
    for (i, j), x in R.entries.items():
        rows[i][keys[j]] = x
    return rows


def filtration_corpus(F):
    for name in sorted(COALGEBRA_LIBRARY):
        yield name, COALGEBRA_LIBRARY[name](F)
    for seed in range(150):
        yield f"random {seed}", random_coalgebra(F, seed, max_dim=6)
    for name in ("trunc_poly3", "dual_numbers", "group_like",
                 "contractible_endo"):
        yield f"bar {name}", bar_construction(CATEGORY_LIBRARY[name](F), 3)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=["q", "f2", "f3"])
def test_filtration_matches_generator_column_oracle(field):
    cases = 0
    for name, c in filtration_corpus(field):
        keys = sorted(c.reduced.keys(), key=repr)
        stages = c.coradical_filtration()
        want = oracle_coradical_filtration(c)
        assert len(stages) == len(want), name
        flat = []
        # oracle slot dimensions of gr: stage k of slot s has dimension
        # dim(F_{k+1} in s) - dim(F_k in s), F_k being a sum over slots
        slot_dims, below = {}, {}
        for k, (stage, span) in enumerate(zip(stages, want)):
            flat.extend(v for _, v in stage)
            assert span_rows(field, keys, flat) == span_rows(
                field, keys, span), (name, k)
            for slot in {key[:3] for key in keys}:
                part = [{key: x for key, x in v.items() if key[:3] == slot}
                        for v in span]
                dim = len(span_rows(field, keys, part))
                if dim > below.get(slot, 0):
                    slot_dims[(slot, k)] = dim - below.get(slot, 0)
                below[slot] = dim
        if len(flat) == c.reduced.total_dim():
            g = associated_graded(c)
            assert g.validate() == [], name
            got = {}
            for key in g.reduced.keys():
                got[(key[:3], key[3][0])] = got.get((key[:3], key[3][0]), 0) + 1
            assert got == slot_dims, name
            # gr is weight-graded: rDelta adds the stages of its cofactors
            # (0-indexed, so one less than the key's), d keeps the stage
            for key, pv in g.comult.items():
                assert all(a[3][0] + b[3][0] + 1 == key[3][0]
                           for a, b in pv), name
            for key, img in g.diff.items():
                assert all(k2[3][0] == key[3][0] for k2 in img), name
        cases += 1
    assert cases == 161


def per_key_coordinates(F, keys, basis):
    """``matrix._coordinates`` one ``SparseMatrix.solve`` per key."""
    kpos = {k: i for i, k in enumerate(keys)}
    base = SparseMatrix(F, len(keys), len(basis), {
        (kpos[k], j): x for j, (_, v) in enumerate(basis)
        for k, x in v.items()})
    return {k: {basis[j][0]: x
                for j, x in base.solve({kpos[k]: F.one}).items()}
            for k in keys}


def in_order(table):
    return [(k, list(v.items()) if isinstance(v, dict) else v)
            for k, v in table.items()]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=["q", "f2", "f3"])
def test_gr_coordinates_match_per_key_solves(field, monkeypatch):
    """gr's coordinate table, from one elimination, equals one solve per
    old key in value and order, and so gr's tables are those the per-key
    solves give, in dict order too."""
    cases = 0
    for name, c in filtration_corpus(field):
        basis = [nv for stage in c.coradical_filtration() for nv in stage]
        if len(basis) != c.reduced.total_dim():
            continue
        keys = sorted(c.reduced.keys(), key=repr)
        assert in_order(coalgebra._coordinates(field, keys, basis)) == \
            in_order(per_key_coordinates(field, keys, basis)), name
        g = associated_graded(c)
        with monkeypatch.context() as m:
            m.setattr(coalgebra, "_coordinates", per_key_coordinates)
            want = associated_graded(c)
        for got, table in ((g.reduced.slots, want.reduced.slots),
                           (g.comult, want.comult), (g.diff, want.diff)):
            assert in_order(got) == in_order(table), name
        cases += 1
    assert cases == 161


def test_associated_graded_of_cancel_is_word_coalgebra():
    c = cancel_coalgebra(QQ)
    g = associated_graded(c)
    assert g.validate() == []
    assert g.reduced.total_dim() == 2
    # gr has one primitive and one element splitting over it
    stages = g.coradical_filtration()
    assert [len(s) for s in stages] == [1, 1]


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["q", "f3"])
def test_associated_graded_drops_lower_weight_terms(field):
    # T^c(v) up to vvv in the basis v, vv, x = vvv + vv: rDelta(x) has the
    # weight-2 part v (x) vv + vv (x) v and the weight-1 part v (x) v,
    # which gr drops
    c = coalgebra_by_names(
        field, {"v": 0, "vv": 0, "x": 0},
        comult={"vv": {("v", "v"): 1},
                "x": {("v", "vv"): 1, ("vv", "v"): 1, ("v", "v"): 1}})
    assert c.validate() == []
    g = associated_graded(c)
    assert g.validate() == []
    f0, f1, f2 = (("*", "*", 0, (i, f"f{i}_0")) for i in range(3))
    one = field.one
    assert g.comult == {f1: {(f0, f0): one}, f2: {(f0, f1): one, (f1, f0): one}}


def test_associated_graded_kills_curvature():
    c = curved_chain(QQ)
    g = associated_graded(c)
    assert g.validate() == []
    # gr of a curved coalgebra is uncurved; here even d(c) = e dies
    # because c sits one filtration stage above e
    assert not g.is_curved()
    assert g.reduced.total_dim() == 4
    stages = g.coradical_filtration()
    assert [len(s) for s in stages] == [3, 1]
    # the stage-preserving piece d(e) = -u survives in gr
    nonzero_d = [k for k in g.reduced.keys() if g.apply_d({k: QQ.one})]
    assert len(nonzero_d) == 1


# -- tensor ------------------------------------------------------------------


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["q", "f3"])
def test_tensor_validates(field):
    t = tensor_coalgebras(dag_coalgebra(field), primitive_pair(field))
    assert t.validate() == []
    assert t.reduced.total_dim() == 3 * 1 + 2 * 3 + 3 * 2
    t2 = tensor_coalgebras(curved_chain(field), w_coalgebra(field))
    assert t2.validate() == []
    assert t2.is_curved()


def test_tensor_with_point_is_identity_shaped():
    c = dag_coalgebra(QQ)
    t = tensor_coalgebras(c, point_coalgebra(QQ))
    assert t.validate() == []
    assert t.reduced.total_dim() == c.reduced.total_dim()
    assert len(t.objects) == len(c.objects)


def test_tensor_comult_koszul_sign():
    # two odd primitives s (deg 1): in C (x) C', rDelta(s (x) s') =
    # -(s (x) g)((x))(g (x) s') + (g (x) s')((x))(s (x) g) pattern with the
    # sign on the term where s' passes s
    c = coalgebra_by_names(QQ, {"s": 1})
    t = tensor_coalgebras(c, c)
    (bk,) = [k for k in t.reduced.keys() if k[2] == 2]
    pairs = t.comult[bk]
    vals = sorted(pairs.values(), key=str)
    assert len(pairs) == 2
    assert sorted(str(v) for v in vals) == ["-1", "1"]


def test_zero_tensor_absorbs():
    z = zero_coalgebra(QQ)
    t = tensor_coalgebras(z, dag_coalgebra(QQ))
    assert t.objects == ()
    assert t.reduced.total_dim() == 0


# -- morphisms ---------------------------------------------------------------


def test_identity_and_composition():
    c = dag_coalgebra(QQ)
    i = identity_morphism(c)
    assert i.validate() == []
    assert compose_morphisms(i, i) == i


def test_strict_morphism_word_projection():
    # T^{<=2}(v) -> T^{<=1}(v): drop vv; strictness fails because
    # rDelta(vv) = v (x) v survives in the source -- so instead check the
    # inclusion T^{<=1} -> T^{<=2}, which is a strict morphism
    gen = GradedQuiver(("x",), {("x", "x", 0): ("v",)})
    c1 = cotensor_coalgebra(QQ, gen, max_weight=1)
    c2 = cotensor_coalgebra(QQ, gen, max_weight=2)
    v1 = ("x", "x", 0, ("v",))
    inc = CoalgebraMorphism(c1, c2, {"x": "x"}, {v1: {v1: QQ.one}})
    assert inc.validate() == []


def test_projection_fails_comultiplicativity():
    gen = GradedQuiver(("x",), {("x", "x", 0): ("v",)})
    c2 = cotensor_coalgebra(QQ, gen, max_weight=2)
    c1 = cotensor_coalgebra(QQ, gen, max_weight=1)
    v1 = ("x", "x", 0, ("v",))
    proj = CoalgebraMorphism(
        c2, c1, {"x": "x"}, {v1: {v1: QQ.one}}
    )  # vv -> 0
    assert any("comultiplication" in m for m in proj.validate())


def test_twisted_morphism_to_point():
    # C = primitive s in degree -1 with d(s) = 0, target = point; a
    # twist a(s) = 1 must satisfy h-compat: 0 = 0 + a(ds) - a(s')a(s'')
    c = coalgebra_by_names(QQ, {"s": -1})
    pt = point_coalgebra(QQ, name="p")
    m = CoalgebraMorphism(
        c, pt, {"*": "p"}, {}, twist={("*", "*", -1, "s"): QQ.one}
    )
    assert m.validate() == []


def test_twist_support_rules():
    c = coalgebra_by_names(QQ, {"s": 0})
    pt = point_coalgebra(QQ, name="p")
    m = CoalgebraMorphism(
        c, pt, {"*": "p"}, {}, twist={("*", "*", 0, "s"): QQ.one}
    )
    assert any("degree -1" in msg for msg in m.validate())


def test_twisted_morphism_sees_curvature():
    # source w-coalgebra (h(w)=1), target point: strict morphism fails
    # (h_C != 0 has nothing to map to), and no twist can fix it since
    # a(dw) = 0 and rDelta(w) = 0
    c = w_coalgebra(QQ)
    pt = point_coalgebra(QQ, name="p")
    m = CoalgebraMorphism(c, pt, {"*": "p"}, {})
    assert any("curvature" in msg for msg in m.validate())


def test_twisted_morphism_with_quadratic_term():
    # source: u (deg -1), m (deg -2) with rDelta(m) = u (x) u; target:
    # point.  A twist a(u) = t needs h-compat on m: 0 = h_C(m) + a(dm)
    # + a(u)a(u) = t^2, so only t = 0 validates; over GF(2) t = 0 too.
    c = coalgebra_by_names(
        QQ,
        {"u": -1, "m": -2},
        comult={"m": {("u", "u"): 1}},
    )
    pt = point_coalgebra(QQ, name="p")
    good = CoalgebraMorphism(c, pt, {"*": "p"}, {})
    assert good.validate() == []
    bad = CoalgebraMorphism(
        c, pt, {"*": "p"}, {}, twist={("*", "*", -1, "u"): QQ.one}
    )
    assert any("curvature" in msg for msg in bad.validate())


def test_composition_of_twisted_morphisms_valid():
    # compose (inclusion with twist) after identity keeps validity and
    # twists add along the composition rule
    c = coalgebra_by_names(QQ, {"s": -1})
    pt = point_coalgebra(QQ, name="p")
    m = CoalgebraMorphism(
        c, pt, {"*": "p"}, {}, twist={("*", "*", -1, "s"): QQ.one}
    )
    i = identity_morphism(c)
    comp = compose_morphisms(m, i)
    assert comp.validate() == []
    assert comp.twist == m.twist


# -- random suite ------------------------------------------------------------


@pytest.mark.parametrize("field", [GF(2), GF(3)], ids=["f2", "f3"])
def test_random_coalgebras_validate(field):
    curved_seen = 0
    for seed in range(60):
        c = random_coalgebra(field, seed)
        assert c.reduced.total_dim() <= 4
        problems = c.validate()
        assert problems == [], (seed, problems)
        curved_seen += c.is_curved()
    assert curved_seen >= 3


def test_random_coalgebras_deterministic():
    a = random_coalgebra(GF(3), 23)
    b = random_coalgebra(GF(3), 23)
    assert a.reduced == b.reduced and a.comult == b.comult


def test_random_uncurved_flag():
    for seed in range(30):
        assert not random_coalgebra(GF(2), seed, allow_curved=False).is_curved()
