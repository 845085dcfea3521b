"""The three benchmark workloads, one per computational claim of the paper.

Each workload is built by ``build(name, seed)``, which imports the library
and constructs every input (stock samples and seeded ``randgen``
instances); that is the set-up the benchmark times.  The result is a
``Workload`` holding two job lists:

- ``deep``: a few fixed large instances, identical for every seed, where
  algorithmic scaling shows;
- ``sweep``: a fixed pool of small seeded instances, shuffled by the
  workload seed, where per-call overhead shows.

A job returns ``(fingerprint, problems)``.  The fingerprint holds output
sizes and invariants (dims by degree, homology vectors, solution counts),
never anything that depends on dict or set order; ``problems`` lists the
checks that failed.  Jobs reach the library only through module attributes
looked up at call time, so the tracer's patches see every call.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

Fingerprint = Dict[str, object]
JobResult = Tuple[Fingerprint, List[str]]

# budget for the exhaustive searches; every instance below stays far under
# it, so a refusal is a failure of the program, not of the workload
SEARCH_BUDGET = 1 << 22


@dataclass
class Job:
    id: str
    run: Callable[[], JobResult]


@dataclass
class Workload:
    name: str
    deep: List[Job]
    sweep: List[Job]


def _lib(name: str):
    return importlib.import_module(f"koszulcat.{name}")


def _dims_by_degree(quiver) -> Dict[str, int]:
    out: Dict[int, int] = {}
    for (_x, _y, n), names in quiver.slots.items():
        out[n] = out.get(n, 0) + len(names)
    return {str(n): out[n] for n in sorted(out)}


def _window(cat, x, y, lo: int, hi: int) -> List[int]:
    h = cat.hom_homology(x, y, lo, hi)
    return [h.get(n, 0) for n in range(lo, hi + 1)]


# ---------------------------------------------------------------------------
# resolve: the counit  Omega B D -> D  is a quasi-isomorphism


def _counit_job(d, cap: int) -> JobResult:
    cd = _lib("convmc").counit_data(d, cap)
    problems = [f"counit not a functor: {p}" for p in cd.functor.validate()[:1]]
    src = cd.cobar.category
    # one degree past the support on both sides; checked against D's own
    # hom complexes, so the verdict does not rest on the counit code
    lo, hi = d.quiver.degree_support()
    lo, hi = lo - 1, hi + 1
    homology = []
    for x in d.quiver.objects:
        for y in d.quiver.objects:
            got, want = _window(src, x, y, lo, hi), _window(d, x, y, lo, hi)
            homology.append(want)
            if got != want:
                problems.append(f"H(Omega B D)({x}, {y}) = {got}, H(D) = {want}")
    fp = {
        "bar_dims": _dims_by_degree(cd.bar.reduced),
        "cobar_words": src.quiver.total_dim(),
        "cobar_comp_entries": len(src.comp),
        "window": [lo, hi],
        "homology": homology,
    }
    return fp, problems


def _ez_job(c, cp, window) -> JobResult:
    rep = _lib("convmc").ez_compare(c, cp, window)
    problems = [] if rep.equal else ["EZ comparison changes window homology"]
    fp = {"cap": rep.cap, "homology": [list(p[3]) for p in rep.pairs]}
    return fp, problems


def _sweep_cap(d) -> int:
    # cap 4 on four-dimensional inputs costs seconds per job; the sweep is
    # about per-call overhead, so it resolves them one weight lower
    return 4 if d.quiver.total_dim() <= 2 else 3


def _build_resolve(seed: int) -> Workload:
    field, samples, randgen = _lib("field"), _lib("samples"), _lib("randgen")
    QQ = field.QQ
    cats, coas = samples.CATEGORY_LIBRARY, samples.COALGEBRA_LIBRARY
    deep = []
    for name, cap in (("trunc_poly3", 5), ("contractible_pair", 4),
                      ("odd_pair_diff", 3)):
        d = cats[name](QQ)
        deep.append(Job(f"deep:counit:{name}:{cap}",
                        lambda d=d, cap=cap: _counit_job(d, cap)))
    c, cp = coas["dag"](QQ), coas["primitive_pair"](QQ)
    deep.append(Job("deep:ez:dag:primitive_pair:-1:3",
                    lambda: _ez_job(c, cp, (-1, 3))))
    sweep = []
    for s in range(110):
        d = randgen.random_dg_category(QQ, s, max_dim=4, allow_curved=False)
        cap = _sweep_cap(d)
        sweep.append(Job(f"sweep:counit:{s}:{cap}",
                         lambda d=d, cap=cap: _counit_job(d, cap)))
    return Workload("resolve", deep, _shuffled(sweep, seed))


# ---------------------------------------------------------------------------
# mc_search: |MC(C, D)| = |Hom(Omega C, D)| = |Hom(C, BD)|


def _mc_job(p: int, bar_cap: int) -> Callable[[], JobResult]:
    field, samples = _lib("field"), _lib("samples")
    F = field.GF(p)
    d = samples.CATEGORY_LIBRARY["trunc_poly3"](F)

    def run() -> JobResult:
        convmc = _lib("convmc")
        bar = _lib("barcobar").bar_construction(d, bar_cap)
        els = convmc.mc_enumerate(bar, d, budget=SEARCH_BUDGET)
        problems = []
        for m in els:
            ok, _ = convmc.mc_check(bar, d, m)
            if not ok:
                problems.append("enumerated element fails the MC equation")
                break
        if len({m.canonical() for m in els}) != len(els):
            problems.append("enumeration repeats an element")
        return {"bar_dims": _dims_by_degree(bar.reduced), "mc": len(els)}, problems
    return run


def _path_coalgebra(field, rng):
    """Deconcatenation coalgebra over u -> v -> w with random degrees:
    conilpotent with an acyclic letter graph, so its cobar is exact."""
    GradedQuiver = _lib("quiver").GradedQuiver
    slots = {}
    for i, (x, y) in enumerate((("u", "v"), ("v", "w"))):
        slots[(x, y, rng.choice([-1, 0, 1]))] = (f"g{i}",)
    gen = GradedQuiver(("u", "v", "w"), slots)
    return _lib("coalgebra").cotensor_coalgebra(field, gen, max_weight=2)


def _three_way_job(c, d) -> JobResult:
    barcobar, convmc = _lib("barcobar"), _lib("convmc")
    cob = barcobar.cobar_construction(c, length_cap=3)
    bar = barcobar.bar_construction(d, 2)
    els = convmc.mc_enumerate(c, d, budget=SEARCH_BUDGET)
    mors = convmc.enumerate_coalgebra_morphisms(c, bar, weight_cap=2,
                                                budget=SEARCH_BUDGET)
    funs = convmc.enumerate_dg_functors(cob, d, budget=SEARCH_BUDGET)
    counts = [len(els), len(funs), len(mors)]
    problems = [] if len(set(counts)) == 1 else [
        f"|MC|, |Hom(Omega C, D)|, |Hom(C, BD)| = {counts}"]
    fp = {"counts": counts, "bar_dims": _dims_by_degree(bar.reduced),
          "cobar_words": cob.category.quiver.total_dim()}
    return fp, problems


def _build_mc_search(seed: int) -> Workload:
    field, randgen = _lib("field"), _lib("randgen")
    F = field.GF(3)
    deep = [Job(f"deep:mc_enumerate:B(trunc_poly3,3):f{p}", _mc_job(p, 3))
            for p in (5, 7)]
    sweep = []
    for s in range(120):
        rng = random.Random(f"mc_search:{s}")
        c = _path_coalgebra(F, rng)
        d = randgen.random_dg_category(F, rng.randrange(1 << 30), max_dim=3,
                                       allow_curved=False)
        sweep.append(Job(f"sweep:three_way:{s}",
                         lambda c=c, d=d: _three_way_job(c, d)))
    return Workload("mc_search", deep, _shuffled(sweep, seed))


# ---------------------------------------------------------------------------
# closed: uHom(C, BD) = B MC*(C, D), the MC category, tensor-hom adjunction


def _internal_hom_job(c, d, cap: int) -> JobResult:
    uh = _lib("convmc").internal_hom(c, d, cap)
    fp = {"objects": len(uh.objects), "bar_dims": _dims_by_degree(uh.reduced)}
    return fp, []


def _mc_category_job(c, d) -> JobResult:
    mcc = _lib("convmc").mc_category(c, d)
    problems = [f"MC category invalid: {p}"
                for p in mcc.category.validate()[:1]]
    fp = {"objects": len(mcc.elements),
          "hom_dims": _dims_by_degree(mcc.category.quiver)}
    return fp, problems


def _tensor_hom_job(c, cp, d, cap: int) -> JobResult:
    barcobar, convmc = _lib("barcobar"), _lib("convmc")
    bar = barcobar.bar_construction(d, cap)
    t = _lib("coalgebra").tensor_coalgebras(c, cp)
    left = convmc.enumerate_coalgebra_morphisms(t, bar, weight_cap=cap,
                                                budget=SEARCH_BUDGET)
    uh = convmc.internal_hom(cp, d, cap)
    right = convmc.enumerate_coalgebra_morphisms(c, uh, weight_cap=cap,
                                                 budget=SEARCH_BUDGET)
    counts = [len(left), len(right)]
    problems = [] if counts[0] == counts[1] else [
        f"|Hom(C (x) C', BD)|, |Hom(C, uHom(C', BD))| = {counts}"]
    return {"counts": counts, "uhom_dims": _dims_by_degree(uh.reduced)}, problems


def _interchange_job(c, cp, d) -> JobResult:
    convmc = _lib("convmc")
    problems = convmc.interchange_problems(c, cp, d, max_objects=64)[:1]
    conv = convmc.convolution_category(c, d, max_objects=256)
    cat = conv.to_dg_category()
    problems += [f"convolution invalid: {p}" for p in cat.validate()[:1]]
    red = convmc.convolution_category(c, d, reduced=True, max_objects=256)
    problems += [f"reduced convolution invalid: {p}"
                 for p in red.validate()[:1]]
    fp = {"objects": len(conv.object_maps),
          "hom_dims": _dims_by_degree(cat.quiver)}
    return fp, problems


def _build_closed(seed: int) -> Workload:
    field, samples, randgen = _lib("field"), _lib("samples"), _lib("randgen")
    cats, coas = samples.CATEGORY_LIBRARY, samples.COALGEBRA_LIBRARY
    F3, F5 = field.GF(3), field.GF(5)
    # internal_hom(dag, exterior_line, 1) over GF(3) already reaches 809 MB
    # and 14 s, and neg_primitive -> contractible_endo at cap 4 over GF(5)
    # 2.2 GB; the deep list stays at the sizes below
    np3, ce3 = coas["neg_primitive"](F3), cats["contractible_endo"](F3)
    dag3, ca3 = coas["dag"](F3), cats["contractible_arrow"](F3)
    np5, ce5 = coas["neg_primitive"](F5), cats["contractible_endo"](F5)
    deep = [
        Job("deep:internal_hom:neg_primitive:contractible_endo:4:f3",
            lambda: _internal_hom_job(np3, ce3, 4)),
        Job("deep:mc_category:dag:contractible_arrow:f3",
            lambda: _mc_category_job(dag3, ca3)),
        Job("deep:tensor_hom:neg_primitive^2:contractible_endo:3:f5",
            lambda: _tensor_hom_job(np5, np5, ce5, 3)),
    ]
    sweep = []
    for s in range(120):
        rng = random.Random(f"closed:{s}")
        F = F3 if s % 2 == 0 else F5
        c = randgen.random_coalgebra(F, rng.randrange(1 << 30), max_dim=3)
        cp = randgen.random_coalgebra(F, rng.randrange(1 << 30), max_dim=2)
        d = randgen.random_dg_category(F, rng.randrange(1 << 30), max_dim=3,
                                       allow_curved=False)
        sweep.append(Job(f"sweep:interchange:{s}",
                         lambda c=c, cp=cp, d=d: _interchange_job(c, cp, d)))
    return Workload("closed", deep, _shuffled(sweep, seed))


def _shuffled(jobs: List[Job], seed: int) -> List[Job]:
    # the pool is fixed so that its fingerprints can be kept on file and
    # every seed does the same work; the seed sets the order
    jobs = list(jobs)
    random.Random(f"order:{seed}").shuffle(jobs)
    return jobs


BUILDERS = {
    "resolve": _build_resolve,
    "mc_search": _build_mc_search,
    "closed": _build_closed,
}


# the cheapest deep instance of each workload, for the smoke runs
SMOKE_DEEP = {
    "resolve": "deep:ez:dag:primitive_pair:-1:3",
    "mc_search": "deep:mc_enumerate:B(trunc_poly3,3):f5",
    "closed": "deep:mc_category:dag:contractible_arrow:f3",
}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)
