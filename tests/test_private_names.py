"""No test reaches a private besselpade name, and the private names the
package's modules import from each other never grow.

Tests exercise the public API only, so internals stay free to change. The
check walks every test module's AST: an import of a private module or
name from besselpade, and an attribute or getattr/setattr of a private
name on a name bound to a besselpade import, are reported. Test helpers
in tests/_oracles.py are exempt.

Inside the package, every `_`-name one module imports from a sibling
module ties the two together. The pinned set below is the set as it
stands; a new such import fails the check, and so does a removed one
until it is dropped from the pin, so that it cannot come back.
"""

import ast
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "besselpade"

# module -> the "sibling._name"s it imports; budak imports none
SIBLING_PRIVATE_IMPORTS = {
    "response": {"core._convolve", "core._int_add"},
}


def private(name):
    return name.startswith("_") and not name.startswith("__")


def private_uses():
    bad = []
    for path in sorted(TESTS.rglob("*.py")):
        if path.name == "_oracles.py":
            continue
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
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and private(node.attr):
                attr, base = node.attr, node.value
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "setattr")
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)
                and private(node.args[1].value)
            ):
                attr, base = node.args[1].value, node.args[0]
            else:
                continue
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


def sibling_private_imports():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 1:  # from .sibling import ...
                sibling = node.module or ""
            elif (node.module or "").startswith("besselpade."):
                sibling = node.module.split(".", 1)[1]
            else:
                continue
            names = {f"{sibling}.{a.name}".lstrip(".") for a in node.names if private(a.name)}
            if names:
                found.setdefault(path.stem, set()).update(names)
    return found


def test_private_imports_between_package_modules_never_grow():
    assert sibling_private_imports() == SIBLING_PRIVATE_IMPORTS
