"""The package exposes only what its own commands and scripts use.

Every public top-level function, class and constant of src/epp_lab must be
referenced somewhere in the package or in scripts/ other than its own
definition and the re-exports in __init__.py; a reference from a name that
fails this test does not count either.  A name that only tests reach
belongs in tests/ (reference implementations go to tests/oracles.py).

The front ends, verify.py and cli.py, reach the library modules through
their public names only; linalg's shared helpers are the one exception.
"""
import ast
from pathlib import Path

import epp_lab

PACKAGE = Path(epp_lab.__file__).resolve().parent
SCRIPTS = PACKAGE.parent.parent / "scripts"


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


def unreferenced_names(package: Path, scripts: Path) -> list:
    """Public names of package that nothing but their own definition, __init__
    and other such names reads, as sorted "module.name" strings."""
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))
               if p.name != "__init__.py"}
    trees = [*modules.values(), *(ast.parse(p.read_text()) for p in sorted(scripts.glob("*.py")))]
    statements = [pair for tree in trees for pair in statement_reads(tree)]
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
    assert unreferenced_names(PACKAGE, SCRIPTS) == []


def test_guard_sees_a_test_only_name(tmp_path):
    """A public helper that nothing in the package calls is reported, even
    when __init__ re-exports it and it calls itself, and so is a constant
    that only the helper reads."""
    package, scripts = tmp_path / "pkg", tmp_path / "scripts"
    package.mkdir()
    scripts.mkdir()
    (package / "__init__.py").write_text("from .core import helper, used\n")
    (package / "core.py").write_text(
        "LIMIT = 3\nSTEP = 1\n\n"
        "def used(n):\n    return min(n, LIMIT)\n\n"
        "def helper(n):\n    return helper(n - STEP) if n else 0\n"
    )
    (scripts / "run.py").write_text("from pkg.core import used as run_used\nrun_used(5)\n")
    assert unreferenced_names(package, scripts) == ["core.STEP", "core.helper"]
