"""The package exposes only what its own commands use.

Every public top-level function, class and constant of src/epp_lab must be
referenced somewhere in the package other than its own definition and the
re-exports in __init__.py; a reference from a name that fails this test does
not count either.  A name that only tests reach
belongs in tests/ (reference implementations go to tests/oracles.py).
Every public field of a dataclass of the package must be read as an
attribute somewhere in the package outside its own class: a result field
that no command or criterion reads is dead weight on every result.

The front ends, verify.py and cli.py, reach the library modules through
their public names only; linalg's shared helpers are the one exception.

Caller input becomes an array in one place, linalg._as_array, which
decides its kind, shape and finiteness: no other function calls
np.asarray, except sampling._exact_total on values the package made.
No function squares through np.power: every complex product rounds in
linalg._cmul_into.
"""
import ast
from pathlib import Path

import epp_lab

PACKAGE = Path(epp_lab.__file__).resolve().parent


def public_definitions(tree: ast.Module) -> dict:
    """name -> defining top-level node, for public functions, classes and constants."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        out.update({name: node for name in names if not name.startswith("_")})
    return out


def statement_reads(tree: ast.Module) -> list:
    """(top-level statement, names it reads): plain names, attributes and
    names imported under an alias, by their original name."""
    aliases = {
        alias.asname: alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.asname
    }
    out = []
    for stmt in tree.body:
        reads = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(aliases.get(node.id, node.id))
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
        out.append((stmt, reads))
    return out


def unreferenced_names(package: Path) -> list:
    """Public names of package that nothing but their own definition, __init__
    and other such names reads, as sorted "module.name" strings."""
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))
               if p.name != "__init__.py"}
    statements = [pair for tree in modules.values() for pair in statement_reads(tree)]
    definitions = {
        f"{stem}.{name}": (name, node)
        for stem, tree in modules.items() for name, node in public_definitions(tree).items()
    }
    dead = set()
    while True:
        # a read counts unless it sits in the definition itself or in one already dead
        newly = [
            node for name, node in definitions.values()
            if id(node) not in dead and not any(
                name in reads and stmt is not node and id(stmt) not in dead
                for stmt, reads in statements
            )
        ]
        if not newly:
            return sorted(key for key, (_, node) in definitions.items() if id(node) in dead)
        dead.update(id(node) for node in newly)


def dataclass_fields(tree: ast.Module) -> dict:
    """(class name, class node) -> public field names, for each top-level
    class decorated with dataclass or dataclass(...)."""
    out = {}
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if "dataclass" in [getattr(d, "id", getattr(d, "attr", None)) for d in decorators]:
            out[node.name, node] = [
                stmt.target.id for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and not stmt.target.id.startswith("_")
            ]
    return out


def unread_fields(package: Path) -> list:
    """Public dataclass fields of package that no top-level statement outside
    their own class reads as an attribute, as sorted "module.Class.field".

    A read is matched by attribute name alone, whatever object it is read
    from, so a field that shares its name with another attribute the package
    reads (a field seed beside cli's args.seed) passes unseen: such a field
    goes by inspection."""
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    statements = [
        (stmt, {node.attr for node in ast.walk(stmt)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)})
        for tree in modules.values() for stmt in tree.body
    ]
    return sorted(
        f"{stem}.{name}.{field}"
        for stem, tree in modules.items()
        for (name, cls), fields in dataclass_fields(tree).items()
        for field in fields
        if not any(field in reads and stmt is not cls for stmt, reads in statements)
    )


def test_every_dataclass_field_is_read_outside_tests():
    assert unread_fields(PACKAGE) == []


def test_guard_sees_a_field_no_one_reads(tmp_path):
    """A field read only inside its own class's methods, or only written or
    passed by keyword outside it, is reported; a field read from any other
    statement is not, and neither is an annotation of a class that is no
    dataclass."""
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "core.py").write_text(
        "import dataclasses, functools\nfrom dataclasses import dataclass\n\n"
        "@dataclass(eq=False)\nclass Result:\n    value: float\n    extra: int\n"
        "    _hidden: int = 0\n\n"
        "    def twice(self):\n        return 2 * self.extra\n\n"
        "@dataclasses.dataclass\nclass Spare:\n    count: int\n\n"
        "@functools.total_ordering\nclass Plain:\n    size: int\n"
    )
    (package / "run.py").write_text(
        "from .core import Result, Spare\n"
        "r = Result(value=1.0, extra=2)\nr.extra = 3\nSpare(count=1)\nprint(r.value)\n"
    )
    assert unread_fields(package) == ["core.Result.extra", "core.Spare.count"]


LIBRARY_MODULES = ("kraus", "protocols", "vidal", "sampling")
FRONT_ENDS = ("verify.py", "cli.py")


def private_reads(source: str) -> list:
    """Sorted "module._name" for each underscore name of a LIBRARY_MODULES
    module that source imports or reads as an attribute of the module."""
    tree = ast.parse(source)
    bound, found = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None and alias.name in LIBRARY_MODULES:
                    bound[alias.asname or alias.name] = alias.name
                elif node.module in LIBRARY_MODULES and alias.name.startswith("_"):
                    found.add(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound and node.attr.startswith("_")):
            found.add(f"{bound[node.value.id]}.{node.attr}")
    return sorted(found)


def test_front_ends_read_no_private_library_name():
    for name in FRONT_ENDS:
        assert private_reads((PACKAGE / name).read_text()) == [], name


def test_guard_sees_a_private_library_read():
    """Attribute reads through a module alias and from-imports are reported;
    linalg's helpers and public names are not."""
    source = (
        "from . import protocols as p, linalg, sampling\n"
        "from .kraus import KrausParams, _as_stack\n"
        "from .linalg import _cabs\n"
        "x = p._cabs(linalg._cmul(1, 2)) + sampling.check_seed(3) + _cabs(1)\n"
    )
    assert private_reads(source) == ["kraus._as_stack", "protocols._cabs"]


def test_every_public_name_is_used_outside_tests():
    assert unreferenced_names(PACKAGE) == []


def test_guard_sees_a_test_only_name(tmp_path):
    """A public helper that nothing in the package calls is reported, even
    when __init__ re-exports it and it calls itself, and so is a constant
    that only the helper reads."""
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from .core import helper, used\n")
    (package / "core.py").write_text(
        "LIMIT = 3\nSTEP = 1\n\n"
        "def used(n):\n    return min(n, LIMIT)\n\n"
        "def helper(n):\n    return helper(n - STEP) if n else 0\n"
    )
    (package / "run.py").write_text("from .core import used as run_used\nrun_used(5)\n")
    assert unreferenced_names(package) == ["core.STEP", "core.helper"]


# the functions allowed to call np.asarray, as "module.function"
ASARRAY_OWNERS = ["linalg._as_array", "sampling._exact_total"]


def numpy_callers(modules: dict, name: str) -> list:
    """Sorted "module.name" of each top-level function or class, and "module"
    for other top-level statements, that calls np.<name> or numpy.<name>, in
    the sources modules maps by module name."""
    found = set()
    for stem, source in modules.items():
        for stmt in ast.parse(source).body:
            if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and node.func.attr == name and isinstance(node.func.value, ast.Name)
                   and node.func.value.id in ("np", "numpy") for node in ast.walk(stmt)):
                named = isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                found.add(f"{stem}.{stmt.name}" if named else stem)
    return sorted(found)


def test_only_the_owner_converts_input_with_asarray():
    modules = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert numpy_callers(modules, "asarray") == ASARRAY_OWNERS


def test_no_function_squares_through_np_power():
    """Squares are complex products, rounded by linalg._cmul_into alone."""
    modules = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert numpy_callers(modules, "power") == []


def test_guard_sees_an_asarray_call():
    """Calls inside functions, methods and at top level are reported; other
    numpy functions are not, np.float_power under the name power included."""
    source = (
        "import numpy as np\n"
        "X = np.asarray([1])\n"
        "def f(x):\n    return np.array(np.asarray(x))\n"
        "class K:\n    def m(self, x):\n        return numpy.asarray(x)\n"
        "def g(x):\n    return np.atleast_1d(x)\n"
        "def h(z):\n    return np.power(z, 2) + np.float_power(z, 2)\n"
        "def q(z):\n    return np.float_power(z, 4)\n"
    )
    assert numpy_callers({"mod": source}, "asarray") == ["mod", "mod.K", "mod.f"]
    assert numpy_callers({"mod": source}, "power") == ["mod.h"]
