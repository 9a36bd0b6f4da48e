"""Source hygiene: every name a package module imports is used in it, every
private module-level name is used somewhere in the package, ``__init__``'s
export table names each export once, from a layer that defines it, and none
that only the tests use, only ``arithmetic`` holds the raw circle metric,
only ``dynamics`` refines IET cuts or reads an IET jump table, no module imports numpy or scipy when it is itself imported, nor while it
refines IET cuts, no module imports scipy at all, and only ``spectral`` names
scipy's LAPACK extension ``_flapack``."""

import ast
import importlib
import pathlib
import subprocess
import sys

import pytest

PACKAGE = pathlib.Path(__file__).parent.parent / "src" / "gordonlab"
MODULES = sorted(PACKAGE.glob("*.py"))
HEAVY = {"numpy", "scipy"}


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no Name node ever loads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_the_scan_sees_an_unused_import():
    assert MODULES, f"no package modules under {PACKAGE}"
    source = "from __future__ import annotations\nimport math\nfrom os import path, sep\nprint(sep)\n"
    assert unused_imports(source) == ["math (line 2)", "path (line 3)"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(module):
    assert unused_imports(module.read_text()) == []


def _bound_names(statement) -> list[str]:
    """Names a module-level def, class or assignment binds (imports do not count)."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        nodes = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return [n.id for t in nodes for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _bound_private_names(statement) -> list[str]:
    """Single-underscore names a module-level def, class or assignment binds."""
    return [t for t in _bound_names(statement) if t.startswith("_") and not t.startswith("__")]


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level names that no statement of any module loads or
    imports, apart from the statement that defines them."""
    defined, uses = [], []
    for module, source in sources.items():
        for statement in ast.parse(source).body:
            names = set()
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
            uses.append((statement, names))
            defined.extend((module, name, statement) for name in _bound_private_names(statement))
    return [
        f"{module}: {name} (line {where.lineno})"
        for module, name, where in defined
        if not any(name in names for statement, names in uses if statement is not where)
    ]


def test_the_scan_sees_a_dead_private_name():
    sources = {
        "a.py": (
            "__all__ = ['f']\n_used = 1\n_dead, _shared = 2, 3\n"
            "def _recursive(n):\n    return _recursive(n - 1)\n"
            "def f():\n    return _used\n"
        ),
        "b.py": "from .a import _shared\n",
    }
    assert dead_private_names(sources) == ["a.py: _dead (line 3)", "a.py: _recursive (line 4)"]


def test_every_private_module_level_name_is_used():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert dead_private_names(sources) == []


def export_table(source: str) -> dict[str, tuple[str, ...]]:
    """The ``_EXPORTS`` table an ``__init__`` assigns: layer -> exported names."""
    (table,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["_EXPORTS"]
    ]
    return table


def export_mismatches(table: dict, layers: dict[str, str]) -> list[str]:
    """How an export table is stale: a name listed twice, a layer that is not
    a module of the package, or a name its layer does not define."""
    listed = [name for names in table.values() for name in names]
    found = [f"{name} (listed twice)" for name in set(listed) if listed.count(name) > 1]
    for layer, names in table.items():
        if layer not in layers:
            found.append(f"{layer} (no such layer)")
            continue
        body = ast.parse(layers[layer]).body
        defined = {name for statement in body for name in _bound_names(statement)}
        found += [f"{layer}.{n} (not defined in {layer})" for n in names if n not in defined]
    return sorted(found)


def test_the_scan_sees_a_stale_export():
    table = export_table(
        "from importlib import import_module\n"
        "_EXPORTS = {\n"
        "    'a': ('f', 'g', 'f'),\n"
        "    'b': ('h', 'k'),\n"
        "    'gone': ('m',),\n"
        "}\n"
    )
    layers = {
        "a": "def f():\n    pass\ng, _ = 1, 2\n",
        "b": "from .a import f as h\nclass k:\n    pass\n",
    }
    assert export_mismatches(table, layers) == [
        "b.h (not defined in b)",
        "f (listed twice)",
        "gone (no such layer)",
    ]


def test_the_export_table_names_each_export_once_from_its_layer():
    table = export_table((PACKAGE / "__init__.py").read_text())
    layers = {p.stem: p.read_text() for p in MODULES if p.name != "__init__.py"}
    assert export_mismatches(table, layers) == []


def test_every_export_resolves_to_its_layers_object():
    import gordonlab

    table = export_table((PACKAGE / "__init__.py").read_text())
    listed = [name for names in table.values() for name in names]
    assert gordonlab.__all__ == [*listed, "__version__"]
    assert dir(gordonlab) == sorted(gordonlab.__all__)
    for layer, names in table.items():
        module = importlib.import_module(f"gordonlab.{layer}")
        for name in names:
            assert getattr(gordonlab, name) is getattr(module, name), f"{layer}.{name}"
    star = {}
    exec("from gordonlab import *", star)
    assert sorted(star.keys() - {"__builtins__"}) == sorted(gordonlab.__all__)
    # a layer's own name that the package does not export
    with pytest.raises(AttributeError, match="no attribute 'raw_orbit'"):
        gordonlab.raw_orbit


REPO = PACKAGE.parent.parent
# exports that no code outside the tests uses, kept as documented API
API_ONLY = {
    "ZERO": "the circle's origin, beside GOLDEN and the other constants",
    "evaluate_sampling": "f at one API point, the single-point form of sample_potential",
    "explicit_window": "criterion 5's periodic windows, from given values",
    "modulus_bound": "criterion 3a's bound, and the perturbation budget of ROADMAP item 3",
}


def unused_exports(table: dict, layers: dict[str, str], sources: list[str]) -> list[str]:
    """Exported names that no source uses: imported by name from the package
    or a layer, read as ``g.X`` or ``gordonlab.X``, or loaded as a name in
    the layer that exports it."""
    used = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "gordonlab"
            ):
                used.update(alias.name for alias in node.names)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in ("g", "gordonlab")
            ):
                used.add(node.attr)
    for layer, names in table.items():
        for node in ast.walk(ast.parse(layers[layer])):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in names:
                used.add(node.id)
    return sorted(name for names in table.values() for name in names if name not in used)


def test_the_scan_sees_a_test_only_export():
    table = {"a": ("f", "h", "k", "m", "n", "p", "s")}
    layers = {"a": "def f():\n    return h\ndef h():\n    pass\nk = m = n = p = s = 0\n"}
    sources = [
        layers["a"],
        "from gordonlab.a import f\nfrom os import m\n",
        "import gordonlab as g\ng.k\nx.n\ngordonlab.p\n",
    ]
    assert unused_exports(table, layers, sources) == ["m", "n", "s"]


def test_every_export_is_used_outside_the_tests():
    table = export_table((PACKAGE / "__init__.py").read_text())
    layers = {p.stem: p.read_text() for p in MODULES}
    sources = [p.read_text() for d in ("src", "scripts", "bench") for p in (REPO / d).rglob("*.py")]
    assert unused_exports(table, layers, sources) == sorted(API_ONLY)


CIRCLE_PRIMITIVES = {"_HALF", "_circle", "_signed"}


def circle_metric_copies(source: str) -> list[str]:
    """What only ``arithmetic`` may hold: a binding of the half turn, the
    circle distance or the signed lift (importing them is fine), and an inline
    reflection min(x, SCALE - x)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound = node.id
        else:
            bound = None
        if bound in CIRCLE_PRIMITIVES:
            found.append((node.lineno, bound))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "min" and len(node.args) == 2:
            for x, y in (node.args, node.args[::-1]):
                if (
                    isinstance(y, ast.BinOp)
                    and isinstance(y.op, ast.Sub)
                    and ast.unparse(y.left) == "SCALE"
                    and ast.dump(y.right) == ast.dump(x)
                ):
                    found.append((node.lineno, ast.unparse(node)))
    return [f"{what} (line {line})" for line, what in sorted(found)]


def test_the_scan_sees_a_private_circle_metric():
    source = (
        "from .arithmetic import SCALE, _signed\n"
        "_HALF = SCALE // 2\n"
        "def _circle(y):\n"
        "    return min(y % SCALE, SCALE - y % SCALE)\n"
        "d = min(SCALE - d, d)\n"
        "e = min(a - b, SCALE - (a - b))\n"
        "f = min(a, SCALE - b)\n"
    )
    assert circle_metric_copies(source) == [
        "_HALF (line 2)",
        "_circle (line 3)",
        "min(y % SCALE, SCALE - y % SCALE) (line 4)",
        "min(SCALE - d, d) (line 5)",
        "min(a - b, SCALE - (a - b)) (line 6)",
    ]


@pytest.mark.parametrize(
    "module",
    [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "arithmetic.py"],
    ids=lambda p: p.name,
)
def test_only_arithmetic_owns_the_circle_metric(module):
    assert circle_metric_copies(module.read_text()) == []


BISECTS = {"bisect", "bisect_left", "bisect_right"}
INSORTS = {"insort", "insort_left", "insort_right"}


def callee(call: ast.Call) -> str | None:
    """The called name: f for f(...) and m for x.m(...)."""
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def iet_cut_refiners(source: str) -> list[str]:
    """What only ``dynamics`` may hold: any use of ``iet_breakpoint_orbits``
    (importing it too), and a piece split, a function that inserts into a
    sorted list by ``insort``, or bisects a list and calls its ``insert``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        if name == "iet_breakpoint_orbits":
            found.append((node.lineno, name))
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        calls = [n for n in ast.walk(node) if isinstance(n, ast.Call) and n.args]
        bisected = {ast.unparse(c.args[0]) for c in calls if callee(c) in BISECTS}
        inserted = {ast.unparse(c.func.value) for c in calls
                    if isinstance(c.func, ast.Attribute) and c.func.attr == "insert"}
        sorted_in = {ast.unparse(c.args[0]) for c in calls if callee(c) in INSORTS}
        for target in sorted(bisected & inserted | sorted_in):
            found.append((node.lineno, f"split of {target} in {node.name}"))
    return [f"{what} (line {line})" for line, what in sorted(found)]


def test_the_scan_sees_an_iet_cut_refiner():
    source = (
        "from bisect import bisect_left, bisect_right, insort\n"
        "from .dynamics import iet_breakpoint_orbits\n"
        "def towers(twin, pieces):\n"
        "    orbits = iet_breakpoint_orbits(twin)\n"
        "    pos = bisect_left(pieces, [3])\n"
        "    pieces.insert(pos, [3, 1])\n"
        "def sorted_cuts(cuts, x):\n"
        "    insort(cuts, x)\n"
        "def lookup(cuts, values, x):\n"
        "    values.insert(0, cuts[bisect_right(cuts, x) - 1])\n"
        "g = dynamics.iet_breakpoint_orbits\n"
    )
    assert iet_cut_refiners(source) == [
        "iet_breakpoint_orbits (line 2)",
        "split of pieces in towers (line 3)",
        "iet_breakpoint_orbits (line 4)",
        "split of cuts in sorted_cuts (line 7)",
        "iet_breakpoint_orbits (line 11)",
    ]


@pytest.mark.parametrize(
    "module",
    [p for p in MODULES if p.name != "dynamics.py"],
    ids=lambda p: p.name,
)
def test_only_dynamics_refines_iet_cuts(module):
    # one refiner, ``dynamics.iet_pieces``, serves the continuity pieces and
    # the Veech tower search alike
    assert iet_cut_refiners(module.read_text()) == []


def test_dynamics_holds_the_one_piece_split():
    found = iet_cut_refiners((PACKAGE / "dynamics.py").read_text())
    splits = [what.split(" (line")[0] for what in found if what.startswith("split")]
    assert splits == ["split of pieces in iet_pieces"]


JUMP_TABLES = {"jumps", "back"}


def jump_table_lookups(source: str) -> list[str]:
    """Subscripts of an IET jump table, ``jumps[...]`` or ``back[...]`` (as a
    name or an attribute), each named by its outermost enclosing def."""
    found = []

    def visit(node, where):
        if isinstance(node, ast.Subscript):
            table = getattr(node.value, "id", None) or getattr(node.value, "attr", None)
            if table in JUMP_TABLES:
                found.append((node.lineno, f"{table}[ in {where}"))
        for child in ast.iter_child_nodes(node):
            inner = child.name if where == "<module>" and isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return [f"{what} (line {line})" for line, what in sorted(found)]


def test_the_scan_sees_a_jump_table_lookup():
    source = (
        "def make(twin, jumps, x):\n"
        "    step = lambda n: n + jumps[n]\n"
        "    def inner(y):\n"
        "        return twin.back[y]\n"
        "    return jumps(x), back, twin.jumps\n"
        "t = twin.jumps[0]\n"
    )
    assert jump_table_lookups(source) == [
        "jumps[ in make (line 2)",
        "back[ in make (line 4)",
        "jumps[ in <module> (line 6)",
    ]


@pytest.mark.parametrize(
    "module",
    [p for p in MODULES if p.name != "dynamics.py"],
    ids=lambda p: p.name,
)
def test_only_dynamics_reads_iet_jump_tables(module):
    # the twin's tables have two readers, its maps and ``iet_pieces``
    assert jump_table_lookups(module.read_text()) == []


def test_dynamics_reads_jump_tables_only_in_its_maps_and_iet_pieces():
    found = jump_table_lookups((PACKAGE / "dynamics.py").read_text())
    readers = {what.split(" in ")[1].split(" (line")[0] for what in found}
    assert readers == {"_iet_twin", "iet_pieces"}


def import_time_heavy_imports(source: str) -> list[str]:
    """numpy/scipy imports that run on import: outside functions and outside
    ``if TYPE_CHECKING:`` blocks."""
    found = []

    def visit(statements):
        for node in statements:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.If) and ast.unparse(node.test) in (
                "TYPE_CHECKING",
                "typing.TYPE_CHECKING",
            ):
                visit(node.orelse)
                continue
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            found.extend(
                f"{m} (line {node.lineno})" for m in modules if m.split(".")[0] in HEAVY
            )
            for field in ("body", "orelse", "finalbody", "handlers"):
                visit(getattr(node, field, []))

    visit(ast.parse(source).body)
    return found


def test_the_scan_sees_an_import_time_heavy_import():
    source = (
        "from typing import TYPE_CHECKING\n"
        "import numpy as np\n"
        "if TYPE_CHECKING:\n"
        "    from scipy.linalg import eigh\n"
        "def f():\n"
        "    import scipy\n"
        "class C:\n"
        "    from numpy import ndarray\n"
        "try:\n"
        "    import os\n"
        "except ImportError:\n"
        "    import scipy.linalg\n"
    )
    assert import_time_heavy_imports(source) == [
        "numpy (line 2)",
        "numpy (line 8)",
        "scipy.linalg (line 12)",
    ]


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_no_heavy_package_on_import(module):
    assert import_time_heavy_imports(module.read_text()) == []


IET_CHILD = """
import sys
from fractions import Fraction
import gordonlab as g

for lengths in ((0.2, 0.5, 0.3), (Fraction(1, 5), Fraction(1, 2), Fraction(3, 10))):
    iet = g.Iet(lengths, g.Permutation((3, 1, 2)))
    assert g.iet_refine_continuity(iet, 40)[0].lo == 0
    g.veech_tower_search(iet, 0.3, 40)
print(sorted(m for m in ("numpy", "scipy") if m in sys.modules))
"""


def test_iet_refinement_and_towers_load_no_heavy_package(src_env):
    # both cut refiners run on integers: neither imports numpy or scipy
    proc = subprocess.run(
        [sys.executable, "-c", IET_CHILD], capture_output=True, text=True, env=src_env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def scipy_imports(source: str) -> list[str]:
    """Import statements of any scipy module, wherever they sit: importing
    ``scipy.linalg`` runs its ``__init__``, about 0.3 s in a fresh process."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module or ""]
        else:
            continue
        found += [(node.lineno, m) for m in modules if m.split(".")[0] == "scipy"]
    return [f"{m} (line {line})" for line, m in sorted(found)]


def flapack_mentions(source: str) -> list[int]:
    """Lines whose string, name, attribute or import names ``_flapack``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            words = [node.value]
        elif isinstance(node, ast.Name):
            words = [node.id]
        elif isinstance(node, ast.Attribute):
            words = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            words = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
        else:
            continue
        if any("_flapack" in word for word in words):
            lines.add(node.lineno)
    return sorted(lines)


def test_the_scans_see_scipy_imports_and_flapack_names():
    source = (
        "import numpy, scipy.linalg as sl\n"
        "def f():\n"
        "    from scipy.linalg import eigh_tridiagonal\n"
        "    from .scipy import x\n"
        "    import scipyx\n"
        "from scipy import _flapack\n"
        "g = sl._flapack\n"
        "h = 'scipy.linalg._flapack'\n"
        "_FLAPACK = 1\n"
        "path = 'flapack'\n"
    )
    assert scipy_imports(source) == [
        "scipy.linalg (line 1)",
        "scipy.linalg (line 3)",
        "scipy (line 6)",
    ]
    assert flapack_mentions(source) == [6, 7, 8]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_module_imports_scipy(module):
    assert scipy_imports(module.read_text()) == []


def test_only_spectral_names_the_lapack_extension():
    named = [p.name for p in MODULES if flapack_mentions(p.read_text())]
    assert named == ["spectral.py"]
