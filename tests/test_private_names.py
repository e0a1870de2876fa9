"""No test reaches a private besselpade name, and no package module reaches
into another's.

Tests exercise the public API only, so internals stay free to change. The
check walks every test module's AST: an import of a private module or
name from besselpade, and an attribute or getattr/setattr of a private
name on a name bound to a besselpade import, are reported.

Inside the package, two rules hold without exception. No module imports
a `_`-name from a sibling (`from ._intpoly import convolve` is fine: the
module is package-internal, the name is not private). No module reads a
`_`-attribute its own classes do not define: a class's private
attributes are those its methods set on `self`, its `__slots__` and its
class-body names, and a read of any other `_`-attribute, `p._nums` on a
`Polynomial` outside `core` or `core._name` on a module, is reported. A
polynomial's integers cross module boundaries through
`Polynomial.integer_form`, `Polynomial.from_integer_form` and
`Polynomial.jw_split` instead.
"""

import ast
import pathlib
import shutil

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "besselpade"


def private(name):
    return name.startswith("_") and not name.startswith("__")


def private_attribute_reads(tree):
    """(node, name, object) of each private attribute read and each
    getattr/setattr of a private name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr):
            yield node, node.attr, node.value
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "setattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
            and private(node.args[1].value)
        ):
            yield node, node.args[1].value, node.args[0]


def private_uses():
    bad = []
    for path in sorted(TESTS.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        bound = set()  # local names bound to besselpade imports
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "besselpade":
                        bound.add((alias.asname or alias.name).split(".")[0])
                        if any(map(private, alias.name.split("."))):
                            bad.append((path, node.lineno, alias.name))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "besselpade":
                for alias in node.names:
                    bound.add(alias.asname or alias.name)
                    if any(map(private, node.module.split("."))) or private(alias.name):
                        bad.append((path, node.lineno, f"{node.module}.{alias.name}"))
        for node, attr, base in private_attribute_reads(tree):
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in bound:
                bad.append((path, node.lineno, attr))
    return bad


def test_no_test_imports_a_private_besselpade_name():
    bad = [
        f"{path.relative_to(TESTS.parent)}:{line}: private besselpade name {name}"
        for path, line, name in private_uses()
    ]
    assert bad == [], "\n".join(bad)


def owned_private_names(tree):
    """The `_`-attributes the classes of one module define: set on `self`
    in a method, listed in `__slots__`, or bound in a class body."""
    owned = set()
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                owned.add(node.name)
            for target in node.targets if isinstance(node, ast.Assign) else []:
                if isinstance(target, ast.Name):
                    owned.add(target.id)
                    if target.id == "__slots__":
                        owned.update(e.value for e in node.value.elts)
        for node in ast.walk(cls):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                owned.add(node.attr)
    return {name for name in owned if private(name)}


def cross_module_private_references(package=PACKAGE):
    """"module:line: name" for each `_`-name one package module imports
    from a sibling, and each `_`-attribute it reads that its own classes
    do not define."""
    bad = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level == 1 or (node.module or "").split(".")[0] == "besselpade"
            ):
                bad += [
                    f"{path.stem}:{node.lineno}: imports {a.name}"
                    for a in node.names
                    if private(a.name)
                ]
        owned = owned_private_names(tree)
        bad += [
            f"{path.stem}:{node.lineno}: reads {attr}"
            for node, attr, _ in private_attribute_reads(tree)
            if attr not in owned
        ]
    return bad


def test_no_package_module_reaches_into_another_modules_private_names():
    bad = cross_module_private_references()
    assert bad == [], "\n".join(bad)


def test_the_package_rule_reports_a_planted_read_and_import(tmp_path):
    copy = tmp_path / "besselpade"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    assert cross_module_private_references(copy) == []
    stability = copy / "stability.py"
    planted = "from .core import _convolve\n\n\ndef leading(p):\n    return p._nums[-1]\n"
    stability.write_text(stability.read_text() + planted)
    bad = cross_module_private_references(copy)
    assert [b.split(": ", 1)[1] for b in bad] == ["imports _convolve", "reads _nums"]
