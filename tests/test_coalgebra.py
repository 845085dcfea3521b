"""Pointed curved coalgebras: axioms, filtration, tensor, morphisms.

curved_chain / curved_chain_flipped pin the sign of the curvature
coaction in d^2 = (h (x) id - id (x) h) rDelta: the two samples differ
only in which cofactor carries h, and their differentials differ by the
induced sign.  cancel_coalgebra pins the conilpotence fallback.
"""

import random

import pytest

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
from koszulcat.quiver import GradedQuiver
from koszulcat.randgen import random_coalgebra
from koszulcat.samples import (
    COALGEBRA_LIBRARY,
    _one_object_coalgebra,
    cancel_coalgebra,
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
    bad = _one_object_coalgebra(
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
    bad = _one_object_coalgebra(
        QQ,
        {"s": -3, "w": -2},
        diff={"s": {"w": 1}},
        curv={"w": 1},
    )
    assert any("h o d" in m for m in bad.validate())


def test_curvature_support_checked():
    bad = _one_object_coalgebra(QQ, {"u": -1}, curv={"u": 1})
    assert any("degree -2" in m for m in bad.validate())


# -- validator catches structural corruption ---------------------------------


def test_validator_catches_noncoassociative():
    c = _one_object_coalgebra(
        QQ,
        {"m": 0, "a": 0},
        comult={"m": {("a", "m"): 1}},  # (D(x)1)D(m) = 0 but (1(x)D)D(m) != 0
    )
    msgs = c.validate()
    assert any("coassociative" in m or "conilpotent" in m for m in msgs)


def test_validator_catches_grouplike_in_reduced():
    # rDelta(g) = g (x) g is the classic grouplike hiding in the
    # "reduced" part; conilpotence rejects it
    c = _one_object_coalgebra(QQ, {"g": 0}, comult={"g": {("g", "g"): 1}})
    assert any("conilpotent" in m for m in c.validate())


def test_validator_catches_co_leibniz():
    c = _one_object_coalgebra(
        QQ,
        {"m": 0, "a": 0, "b": 1},
        comult={"m": {("a", "a"): 1}},
        diff={"a": {"b": 1}},  # d(m) = 0 but rDelta(dm) != (d(x)1 + 1(x)d)rDelta m
    )
    assert any("co-Leibniz" in m for m in c.validate())


def test_validator_catches_degree_drift():
    c = _one_object_coalgebra(
        QQ, {"m": 0, "a": 1}, comult={"m": {("a", "a"): 1}}
    )
    assert any("degree" in m for m in c.validate())


def test_validator_catches_bad_middle_object():
    q = GradedQuiver(
        ("x", "y"),
        {("x", "y", 0): ("m",), ("x", "x", 0): ("a",), ("y", "y", 0): ("b",)},
    )
    m = ("x", "y", 0, "m")
    a = ("x", "x", 0, "a")
    b = ("y", "y", 0, "b")
    c = PointedCoalgebra(QQ, ("x", "y"), q, {m: {(b, a): QQ.one}})
    assert any("composable" in s for s in c.validate())


# -- deconcat / iterated comultiplication ------------------------------------


def test_deconcat_on_word_coalgebra():
    gen = GradedQuiver(
        ("x", "y", "z"), {("x", "y", 0): ("a",), ("y", "z", 1): ("b",)}
    )
    c = cotensor_coalgebra(QQ, gen)
    assert c.validate() == []
    ab = ("x", "z", 1, ("a", "b"))
    one = QQ.one
    assert c.deconcat({ab: one}, 1) == {(ab,): one}
    assert c.deconcat({ab: one}, 2) == {
        ((("x", "y", 0, ("a",)), ("y", "z", 1, ("b",)))): one
    }
    assert c.deconcat({ab: one}, 3) == {}


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
    c = _one_object_coalgebra(QQ, {"g": 0}, comult={"g": {("g", "g"): 1}})
    stages = c.coradical_filtration()
    assert sum(len(s) for s in stages) == 0


def test_associated_graded_of_cancel_is_word_coalgebra():
    c = cancel_coalgebra(QQ)
    g = associated_graded(c)
    assert g.validate() == []
    assert g.reduced.total_dim() == 2
    # gr has one primitive and one element splitting over it
    stages = g.coradical_filtration()
    assert [len(s) for s in stages] == [1, 1]


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
    c = _one_object_coalgebra(QQ, {"s": 1})
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
    c = _one_object_coalgebra(QQ, {"s": -1})
    pt = point_coalgebra(QQ, name="p")
    m = CoalgebraMorphism(
        c, pt, {"*": "p"}, {}, twist={("*", "*", -1, "s"): QQ.one}
    )
    assert m.validate() == []


def test_twist_support_rules():
    c = _one_object_coalgebra(QQ, {"s": 0})
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
    c = _one_object_coalgebra(
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
    c = _one_object_coalgebra(QQ, {"s": -1})
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
