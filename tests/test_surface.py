"""The installed surface: console scripts resolve and documented modules import.

The package docstring names each module at the head of a bullet; every
such name must import, and every ``[project.scripts]`` target in
``pyproject.toml`` must resolve to a callable.  No module imports a name
it never uses, and none compares anything with ``max_problems``: a
validator yields its problems and ``validate`` cuts the stream once, by
``itertools.islice``.  The propagation solver ``convmc._solve`` has one
caller, ``convmc._mc_solve``: every hom-set search solves the one
Maurer-Cartan equation system.  In ``samples``, only the builders by
names (``named_keys``, ``category_by_names``, ``coalgebra_by_names``)
call ``GradedQuiver``, ``DgCategory`` or ``PointedCoalgebra``: every
stock instance is built by names.  Only ``matrix`` calls the elimination
``matrix._eliminate``, and no other module calls ``.rref(``: library
callers hand their rows to ``matrix``'s private helpers instead of
building a ``SparseMatrix``.  Only ``dgcat._path_category`` calls the
word lister ``quiver.WordTrie``: bar and cotensor coalgebras rank their
words (``quiver.Words``) instead.  Only ``bar_construction`` takes a
``splitting`` parameter, and only ``convmc._bar_splitting`` reads a
coalgebra's ``.splitting``: a map into BD is read through the splitting
BD was built on, never through one passed beside it.  Every optional
parameter of a public module-level function is set by some call in the
library or the benchmark, or is listed in ``TEST_ONLY_OPTIONS`` with the
behaviour the tests reach through it.  In a generator named
``*_problems``, every f-string is the whole value of a ``yield``, so a
message is formatted only for a problem found.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import koszulcat

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
PERFBENCH = PYPROJECT.parent / "perfbench"
SRC = Path(koszulcat.__file__).resolve().parent


def documented_modules():
    names = []
    for line in koszulcat.__doc__.splitlines():
        if line.startswith("- "):
            head = line[2:].split(":", 1)[0]
            names += re.findall(r"``(\w+)``", head)
    return names


def test_console_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_documented_modules_import():
    names = documented_modules()
    assert {"field", "quiver", "barcobar", "convmc"} <= set(names)
    for name in names:
        importlib.import_module(f"koszulcat.{name}")


def unused_imports(source: str):
    """Names a module imports and never reads.  A name read counts as an
    ``ast.Name`` anywhere in the module (annotations included) or an
    entry of ``__all__``; ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_imports_are_caught():
    assert unused_imports(
        "from __future__ import annotations\n"
        "import os.path, sys\n"
        "from typing import Dict, Optional\n"
        "from .field import Vec as V, vec_bump\n"
        "__all__ = ['vec_bump']\n"
        "def f(x: Dict) -> V:\n"
        "    return os.path.join(x)\n") == [(2, "sys"), (3, "Optional")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def cap_comparisons(source: str):
    """Lines that compare something with ``max_problems``: a cut written
    by hand instead of an ``islice`` of the problem stream."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Compare)
                  and any(isinstance(x, ast.Name) and x.id == "max_problems"
                          for x in [node.left] + node.comparators))


def test_cap_comparisons_are_caught():
    assert cap_comparisons(
        "def validate(self, max_problems=25):\n"
        "    problems = list(islice(self._problems(), max_problems))\n"
        "    if len(problems) >= max_problems:\n"
        "        return problems\n"
        "    return [p for p in problems if max_problems > 1 and p]\n"
        ) == [3, 5]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_hand_written_cut(path):
    assert cap_comparisons(path.read_text()) == []


def callers(source: str, names):
    """(enclosing function, line) of each call of a bare name in
    ``names``."""
    out = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id in names):
                out.append((where, child.lineno))
            visit(child, where)

    visit(ast.parse(source), None)
    return sorted(out, key=lambda x: x[1])


def test_solve_callers_are_caught():
    assert callers(
        "def _mc_solve(c):\n"
        "    def inner():\n"
        "        return _solve(c)\n"
        "    return _solve(c), inner\n"
        "x = _solve(1)\n"
        "def search(c):\n"
        "    return other._solve(c), _solve_all(c)\n",
        {"_solve"}) == [("inner", 3), ("_mc_solve", 4), (None, 5)]


def test_one_caller_of_the_solver():
    calls = [(path.name,) + call for path in sorted(SRC.glob("*.py"))
             for call in callers(path.read_text(), {"_solve"})]
    assert [c[:2] for c in calls] == [("convmc.py", "_mc_solve")]


STRUCTURES = {"GradedQuiver", "DgCategory", "PointedCoalgebra"}
BUILDERS = {"named_keys", "category_by_names", "coalgebra_by_names"}


def test_structure_constructors_are_caught():
    assert callers(
        "def named_keys(arrows):\n"
        "    return GradedQuiver(objects, slots)\n"
        "def a2_category(field):\n"
        "    return DgCategory(field, q, {}, {}), build(field)\n"
        "c = PointedCoalgebra(F, (), q, {})\n",
        STRUCTURES) == [("named_keys", 2), ("a2_category", 4), (None, 5)]


def test_samples_are_built_by_names():
    calls = callers((SRC / "samples.py").read_text(), STRUCTURES)
    assert calls and {where for where, _ in calls} <= BUILDERS


def elimination_calls(source: str):
    """(name, line) of each call of ``_eliminate``, bare or as an
    attribute, and of each ``.rref`` method call."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id == "_eliminate":
            out.append(("_eliminate", node.lineno))
        elif isinstance(f, ast.Attribute) and f.attr in ("_eliminate", "rref"):
            out.append((f.attr, node.lineno))
    return sorted(out, key=lambda x: x[1])


def test_elimination_calls_are_caught():
    assert elimination_calls(
        "from .matrix import _eliminate\n"
        "def f(m, rows):\n"
        "    R, pivots = m.rref()\n"
        "    return _eliminate(F, rows, 3), matrix._eliminate(F, rows, 3)\n"
        "x = rref(m), _eliminate_all(rows), m.rank(), m.rref\n"
        ) == [("rref", 3), ("_eliminate", 4), ("_eliminate", 4)]


def test_elimination_is_called_in_matrix_only():
    calls = [(path.name,) + call for path in sorted(SRC.glob("*.py"))
             for call in elimination_calls(path.read_text())]
    assert calls and [c for c in calls if c[0] != "matrix.py"] == []


def test_word_lister_callers_are_caught():
    assert callers(
        "from .quiver import WordTrie, Words\n"
        "def _path_category(objects, letters):\n"
        "    trie = WordTrie(objects, letters)\n"
        "def bar_construction(cat, cap):\n"
        "    return Words(cat, cap), WordTrie(cat, [], cap)\n"
        "t = quiver.WordTrie(o, l)\n",
        {"WordTrie"}) == [("_path_category", 3), ("bar_construction", 5)]


def test_only_path_categories_list_words():
    calls = [(path.name,) + call for path in sorted(SRC.glob("*.py"))
             for call in callers(path.read_text(), {"WordTrie"})]
    assert [c[:2] for c in calls] == [("dgcat.py", "_path_category")]


def splitting_uses(source: str):
    """(kind, enclosing function, line) of each parameter named
    ``splitting`` ("param") and each read of a ``.splitting`` attribute,
    by ``x.splitting`` or ``getattr(x, "splitting", ...)`` ("read")."""
    out = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                out.extend(("param", child.name, child.lineno)
                           for arg in a.posonlyargs + a.args + a.kwonlyargs
                           if arg.arg == "splitting")
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "splitting"
                    and isinstance(child.ctx, ast.Load)):
                out.append(("read", where, child.lineno))
            elif (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id == "getattr" and len(child.args) > 1
                    and isinstance(child.args[1], ast.Constant)
                    and child.args[1].value == "splitting"):
                out.append(("read", where, child.lineno))
            visit(child, where)

    visit(ast.parse(source), None)
    return sorted(out, key=lambda x: x[2])


def test_splitting_uses_are_caught():
    assert splitting_uses(
        "def bar_construction(cat, cap, splitting=None):\n"
        "    bar.splitting = splitting\n"
        "def mc_from_morphism(mor, splitting):\n"
        "    return mor.target.splitting.cat\n"
        "def _bar_splitting(bar):\n"
        "    return getattr(bar, 'splitting', None), getattr(bar, 'cat')\n"
        "def f(*, splitting):\n"
        "    g(splitting=1)\n") == [
            ("param", "bar_construction", 1), ("param", "mc_from_morphism", 3),
            ("read", "mc_from_morphism", 4), ("read", "_bar_splitting", 6),
            ("param", "f", 7)]


def test_one_reader_of_the_bar_splitting():
    uses = [(path.name,) + use for path in sorted(SRC.glob("*.py"))
            for use in splitting_uses(path.read_text())]
    assert [u[:3] for u in uses] == [
        ("barcobar.py", "param", "bar_construction"),
        ("convmc.py", "read", "_bar_splitting")]


def early_messages(source: str):
    """(function, line) of each f-string in the own body of a generator
    function named ``*_problems`` that is not the whole value of a
    ``yield``: a message formatted before a check has failed.  Nested
    functions are their own bodies; an f-string inside another (a format
    spec) belongs to the outer one."""
    def own(node):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child
                if not isinstance(child, ast.JoinedStr):
                    yield from own(child)

    out = []
    for fn in ast.walk(ast.parse(source)):
        if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                and fn.name.endswith("_problems")):
            body = list(own(fn))
            yielded = {id(n.value) for n in body if isinstance(n, ast.Yield)}
            if any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in body):
                out += [(fn.name, n.lineno) for n in body
                        if isinstance(n, ast.JoinedStr)
                        and id(n) not in yielded]
    return sorted(out, key=lambda x: x[1])


def test_early_messages_are_caught():
    assert early_messages(
        "def _problems(self):\n"
        "    yield f'unit at {x!r} is zero'\n"
        "    yield from self._vec_ok(u, slot, f'unit at {x!r}')\n"
        "    msg = f'd{key}'\n"
        "    yield (f'a {x}' if x else 'b')\n"
        "    yield f'{x:>{w}}' 'tail'\n"
        "    def inner():\n"
        "        return f'{y}'\n"
        "def table_problems(rows):\n"
        "    return [f'{r}' for r in rows]\n"
        "def _report(x):\n"
        "    yield str(f'{x}')\n"
        ) == [("_problems", 3), ("_problems", 4), ("_problems", 5)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_messages_are_built_for_failures_only(path):
    assert early_messages(path.read_text()) == []


def unset_options(defs, calls):
    """(function, parameter) of each optional parameter of a public
    module-level function in the sources ``defs`` that no call in the
    sources ``calls`` sets.  A call names the function bare, through an
    import alias (``from m import f as g``) or as any attribute ``m.f``;
    it sets a parameter by keyword or by position, ``*args`` every
    positional parameter from its place on, ``**kwargs`` every one."""
    sigs = {}
    for source in defs:
        for node in ast.parse(source).body:
            if (isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("_")):
                a = node.args
                pos = [x.arg for x in a.posonlyargs + a.args]
                opt = pos[len(pos) - len(a.defaults):] if a.defaults else []
                opt += [x.arg for x, d in zip(a.kwonlyargs, a.kw_defaults)
                        if d is not None]
                sigs[node.name] = (pos, opt)
    unset = {(f, p) for f, (_, opt) in sigs.items() for p in opt}
    for source in calls:
        tree = ast.parse(source)
        alias = {a.asname: a.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)
                 for a in node.names if a.asname}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = (alias.get(f.id, f.id) if isinstance(f, ast.Name)
                    else getattr(f, "attr", None))
            if name not in sigs:
                continue
            pos, opt = sigs[name]
            for i, arg in enumerate(node.args):
                unset -= {(name, p) for p in (
                    pos[i:] if isinstance(arg, ast.Starred) else pos[i:i + 1])}
            for kw in node.keywords:
                unset -= {(name, p) for p in (
                    opt if kw.arg is None else [kw.arg])}
    return sorted(unset)


def test_unset_options_are_caught():
    defs = ("def search(c, d, budget=1, *, cap=None, trace=False):\n"
            "    def inner(x=1):\n"
            "        return x\n"
            "def object_maps(objs, targets, limit=None):\n"
            "    return []\n"
            "def _private(x=0):\n"
            "    return x\n"
            "def relay(c, d, budget=1, cap=None):\n"
            "    return search(c, d, budget)\n"
            "def spread(*args, depth=0, width=0):\n"
            "    return args\n")
    calls = ("from .quiver import object_maps as all_object_maps\n"
             "x = all_object_maps(a, b, 3), _private()\n"
             "y = lib.search(c, d, cap=2), spread(1, **kw)\n"
             "z = relay(*args), object_maps(a, b)\n")
    assert unset_options([defs], [defs, calls]) == [("search", "trace")]
    assert unset_options([defs], [defs]) == [
        ("object_maps", "limit"), ("relay", "budget"), ("relay", "cap"),
        ("search", "cap"), ("search", "trace"), ("spread", "depth"),
        ("spread", "width")]


# optional parameters only the tests set, each with what it reaches
TEST_ONLY_OPTIONS = {
    ("bar_construction", "splitting"):
        "custom complements reach the merge-sign paths of the bar",
    ("interchange_problems", "reduced_outer"):
        "the interchange of the reduced convolutions, {C-bar (x) C', D}",
    ("mc_enumerate", "object_maps"):
        "the MC search on chosen object maps, each given map searched once",
    ("convolution_category", "object_maps"):
        "the convolution category on chosen object maps",
    ("mc_category", "elements"):
        "MC*(C, D) on supplied elements, such as the identity of a bar",
    ("point_coalgebra", "name"):
        "a one-point coalgebra named apart from the source's objects",
    ("random_coalgebra", "allow_curved"):
        "seeded uncurved coalgebras for the uncurved-only checks",
}


def test_every_option_has_a_caller():
    defs = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    calls = defs + [path.read_text()
                    for path in sorted(PERFBENCH.glob("*.py"))]
    assert unset_options(defs, calls) == sorted(TEST_ONLY_OPTIONS)
