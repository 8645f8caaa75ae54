"""A guard against scaffolding: every module-level function or class of the
package is used outside its own definition.

A private helper that only its own definition names (a wrapper the last
caller stopped using, say) is dead code; tests alone do not keep it alive.
A public one must be named somewhere in the package, the tests, the tools
or the benchmark, so that a layer whose callers all moved away (a stale
entry point, say) does not linger.
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


def unused(definitions, uses, elsewhere=frozenset()) -> list[str]:
    """The definitions that no other node, and nothing in `elsewhere`, names."""
    return [
        f"{module}: {name}"
        for module, name, node in definitions
        if name not in elsewhere
        and not any(name in used for other, used in uses if other is not node)
    ]


def test_every_private_definition_is_used_outside_itself():
    definitions, uses = definitions_and_uses()
    private = [d for d in definitions if d[1].startswith("_") and d[1][:2] != "__"]
    assert private, "found no private definitions to check"
    assert unused(private, uses) == []


def test_every_public_definition_is_named_outside_itself():
    definitions, uses = definitions_and_uses()
    public = [d for d in definitions if not d[1].startswith("_")]
    assert public, "found no public definitions to check"
    elsewhere = set()
    for folder in ELSEWHERE:
        for path in sorted((ROOT / folder).rglob("*.py")):
            elsewhere |= names_in(parse(path))
    assert unused(public, uses, elsewhere) == []
