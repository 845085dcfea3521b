"""Per-layer tracing of koszulcat, installed at run time from outside.

``Tracer.install()`` patches the loaded ``koszulcat`` modules in place; the
library source is not touched.  Layer = module.  Every public function and
method of a layer gets a span (name, start, end, parent, job id); a
layer's self time is the span duration minus the time its child spans
cover.  Hot leaf calls get a counter instead of a span, so the tracing
overhead stays bounded: their time lands in the calling span's self time.

A function bound elsewhere by ``from .barcobar import bar_construction``
is a separate name in the importing module; ``install`` rebinds every such
name, else nested calls would escape the trace.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

LAYERS = ("field", "matrix", "complexes", "dgcat", "coalgebra", "barcobar",
          "convmc")

# leaf calls made millions of times per workload: counted, not timed
COUNTED = {
    "field.vec", "field.vec_add", "field.vec_sub", "field.vec_neg",
    "field.vec_scale", "field.vec_addmul", "field.vec_bump", "field.vec_eq",
    "dgcat.DgCategory.compose", "dgcat.DgCategory.apply_d",
    "dgcat.DgCategory.basis_vec", "dgcat.DgCategory.unit_vec",
    "dgcat.DgCategory.curvature_vec", "dgcat.DgCategory.is_curved",
    "dgcat.DgFunctor.apply",
    "coalgebra.PointedCoalgebra.apply_d",
    "coalgebra.PointedCoalgebra.reduced_comult",
    "coalgebra.PointedCoalgebra.deconcat",
    "coalgebra.PointedCoalgebra.curvature_value",
    "coalgebra.PointedCoalgebra.is_curved",
    "coalgebra.CoalgebraMorphism.apply",
    "coalgebra.CoalgebraMorphism.twist_value",
    "barcobar.Splitting.split", "barcobar.Splitting.letter_vec",
    "convmc.ConvolutionCategory.comp_vec",
    "convmc.ConvolutionCategory.diff_vec",
    "convmc.ConvolutionCategory.hom_keys",
    "convmc.ConvolutionCategory.om_value",
    "convmc.ConvolutionCategory.apply_d",
    "convmc.ConvolutionCategory.star",
    "convmc.ConvolutionCategory.unit_vec",
    "convmc.ConvolutionCategory.curvature_vec",
    "matrix.SparseMatrix.get",
}

# scalar arithmetic; Field.sub and Field.div reach these, so each ring
# operation is counted once
FIELD_OPS = ("add", "mul", "neg", "inv")

SEARCH = {"convmc.mc_enumerate", "convmc.mc_enumerate_tensor",
          "convmc.enumerate_dg_functors",
          "convmc.enumerate_coalgebra_morphisms"}


def _bar_sizes(tr: "Tracer", result) -> None:
    reduced = getattr(result, "reduced", None)
    if reduced is not None:
        tr.counts["barcobar.bar_words"] += reduced.total_dim()


def _cobar_sizes(tr: "Tracer", result) -> None:
    cat = result.category
    tr.counts["barcobar.cobar_words"] += cat.quiver.total_dim()
    tr.counts["barcobar.cobar_comp_entries"] += len(cat.comp)


def _solutions(tr: "Tracer", result) -> None:
    tr.counts["convmc.mc_solutions"] += len(result)


RESULT_HOOKS = {
    "barcobar.bar_construction": _bar_sizes,
    "barcobar.cobar_construction": _cobar_sizes,
    **{name: _solutions for name in SEARCH},
}


class Tracer:
    def __init__(self):
        self.job: Optional[str] = None
        self.spans: List[tuple] = []  # (id, name, start, end, parent, job)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.ops = [0, 0]  # field operations over QQ, over GF(p)
        self.search_ops = 0
        self._stack: List[list] = []  # [span id, time covered by children]
        self._next_id = 0
        self._search_depth = 0

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn: Callable, name: str) -> Callable:
        tr, stack, self_s = self, self._stack, self.self_s
        hook = RESULT_HOOKS.get(name)
        search = name in SEARCH

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tr._next_id
            tr._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            if search:
                tr._search_depth += 1
                ops0 = tr.ops[0] + tr.ops[1]
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                tr.spans.append((sid, name, t0, t1, parent, tr.job))
                if search:
                    tr._search_depth -= 1
                    if tr._search_depth == 0:
                        tr.search_ops += tr.ops[0] + tr.ops[1] - ops0
            if hook is not None:
                hook(tr, result)
            return result
        return traced

    def _counter(self, fn: Callable, name: str) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _field_op(self, fn: Callable, slot: int) -> Callable:
        ops = self.ops

        @functools.wraps(fn)
        def counted(*args):
            ops[slot] += 1
            return fn(*args)
        return counted

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        mods = {layer: importlib.import_module(f"koszulcat.{layer}")
                for layer in LAYERS}
        field = mods["field"]
        for cls, slot in ((type(field.QQ), 0), (type(field.GF(2)), 1)):
            for op in FIELD_OPS:
                setattr(cls, op, self._field_op(cls.__dict__[op], slot))
        rebound: Dict[int, Callable] = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    rebound[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
                elif isinstance(obj, type) and layer != "field":
                    # the field classes are covered by the op counters
                    self._wrap_class(obj, f"{layer}.{attr}")
        # rebind the originals wherever a module imported them by name
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "koszulcat" or mod_name.startswith("koszulcat.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in rebound and isinstance(obj, types.FunctionType):
                    setattr(mod, attr, rebound[id(obj)])

    def _wrap(self, fn: Callable, name: str) -> Callable:
        if name in COUNTED:
            return self._counter(fn, name)
        return self._span(fn, name)

    def _wrap_class(self, cls: type, prefix: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(obj, types.FunctionType):
                setattr(cls, attr, self._wrap(obj, name))
            elif isinstance(obj, (classmethod, staticmethod)):
                setattr(cls, attr, type(obj)(self._wrap(obj.__func__, name)))

    # -- per-layer metrics --------------------------------------------------

    def self_time(self, pred: Callable[[str], bool]) -> float:
        return sum(t for name, t in self.self_s.items() if pred(name))

    def metrics(self, scale: float = 1.0) -> Dict[str, float]:
        """Per-layer metrics; span times are multiplied by ``scale``."""
        def named(*names):
            return lambda n: n in names

        def layer(prefix):
            return lambda n: n.startswith(prefix + ".")

        def conv_class(n):
            return n.startswith("convmc.ConvolutionCategory.") and \
                not n.endswith(".validate")

        def st(pred):
            return scale * self.self_time(pred)

        solutions = self.counts["convmc.mc_solutions"]
        return {
            "barcobar.cobar_s": st(named("barcobar.cobar_construction")),
            "barcobar.bar_s": st(named("barcobar.bar_construction")),
            "barcobar.bar_words": self.counts["barcobar.bar_words"],
            "barcobar.cobar_words": self.counts["barcobar.cobar_words"],
            "barcobar.cobar_comp_entries": self.counts["barcobar.cobar_comp_entries"],
            "dgcat.validate_s": st(named(
                "dgcat.DgCategory.validate", "dgcat.DgFunctor.validate")),
            "dgcat.compose_calls": self.counts["dgcat.DgCategory.compose"],
            "dgcat.self_s": st(layer("dgcat")),
            "coalgebra.validate_s": st(named(
                "coalgebra.PointedCoalgebra.validate",
                "coalgebra.CoalgebraMorphism.validate")),
            "coalgebra.self_s": st(layer("coalgebra")),
            "convmc.search_s": st(lambda n: n in SEARCH),
            "convmc.ops_per_solution": self.search_ops / max(1, solutions),
            "convmc.mc_solutions": solutions,
            "convmc.tables_s": st(
                lambda n: n in ("convmc.mc_category", "convmc.internal_hom")
                or conv_class(n)),
            "convmc.transport_s": st(named(
                "convmc.counit_data", "convmc.counit",
                "convmc.universal_cochain", "convmc.adjunction_functor_from_mc",
                "convmc.adjunction_mc_from_functor", "convmc.mc_from_morphism",
                "convmc.morphism_from_mc", "convmc.ez_data", "convmc.ez_map")),
            "matrix.elim_s": st(layer("matrix")),
            "complexes.homology_s": st(layer("complexes")),
            "field.ops_q": self.ops[0],
            "field.ops_gfp": self.ops[1],
        }
