"""A guard against scaffolding: every module-level function or class of the
package, and every method of its classes, is used outside its own
definition.

A private helper that only its own definition names (a wrapper the last
caller stopped using, say) is dead code; tests alone do not keep it alive.
A public one must be named somewhere in the package, the tests, the tools
or the benchmark, so that a layer whose callers all moved away (a stale
entry point, say) does not linger. Dunder methods, which Python calls, are
not checked. Names are matched as names: a method is kept alive by any use
of its name, another class's method of that name too.
"""
import ast
from pathlib import Path

import xmixup

PACKAGE = Path(xmixup.__file__).parent
ROOT = PACKAGE.parent.parent
ELSEWHERE = ("tests", "tools", "bench")


def names_in(node) -> set[str]:
    """The names a node uses: loaded names, attributes and imported names."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name)
    return used


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def definitions_and_uses():
    """The module-level functions and classes of the package, as (module,
    name, node), and for each module-level node of every module the names
    it uses."""
    definitions, uses = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((path.name, node.name, node))
            uses.append((node, names_in(node)))
    return definitions, uses


def methods_and_uses():
    """The methods of the package's module-level classes, as (module, name,
    node) with the name qualified by the class, and the names each
    module-level node uses, a class's body split into its statements, so
    that a method's siblings count as outside it."""
    definitions, uses = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in parse(path).body:
            if not isinstance(node, ast.ClassDef):
                uses.append((node, names_in(node)))
                continue
            for part in node.body:
                if isinstance(part, ast.FunctionDef):
                    definitions.append((path.name, f"{node.name}.{part.name}", part))
                uses.append((part, names_in(part)))
    return definitions, uses


def unused(definitions, uses, elsewhere=frozenset()) -> list[str]:
    """The definitions that no other node, and nothing in `elsewhere`, names."""
    found = []
    for module, qualified, node in definitions:
        name = qualified.rpartition(".")[2]
        if name not in elsewhere and not any(
            name in used for other, used in uses if other is not node
        ):
            found.append(f"{module}: {qualified}")
    return found


def is_private(definition) -> bool:
    name = definition[1].rpartition(".")[2]
    return name.startswith("_") and name[:2] != "__"


def is_public(definition) -> bool:
    return not definition[1].rpartition(".")[2].startswith("_")


def named_elsewhere() -> set[str]:
    """The names that the tests, the tools and the benchmark use."""
    elsewhere = set()
    for folder in ELSEWHERE:
        for path in sorted((ROOT / folder).rglob("*.py")):
            elsewhere |= names_in(parse(path))
    return elsewhere


def check_private(definitions, uses) -> None:
    private = [d for d in definitions if is_private(d)]
    assert private, "found no private definitions to check"
    assert unused(private, uses) == []


def check_public(definitions, uses) -> None:
    public = [d for d in definitions if is_public(d)]
    assert public, "found no public definitions to check"
    assert unused(public, uses, named_elsewhere()) == []


def test_every_private_definition_is_used_outside_itself():
    check_private(*definitions_and_uses())


def test_every_public_definition_is_named_outside_itself():
    check_public(*definitions_and_uses())


def test_every_private_method_is_used_outside_itself():
    check_private(*methods_and_uses())


def test_every_public_method_is_named_outside_itself():
    check_public(*methods_and_uses())
