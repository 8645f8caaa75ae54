"""A guard against scaffolding: every private module-level function or class
of the package is used somewhere in the package.

A helper that only its own definition names (a wrapper the last caller
stopped using, say) is dead code; tests alone do not keep it alive.
"""
import ast
from pathlib import Path

import xmixup

PACKAGE = Path(xmixup.__file__).parent


def private_definitions_and_uses():
    """The single-underscore module-level functions and classes, as
    (module, name, node), and for each module-level node of every module
    the names it uses: loaded names, attributes and imported names."""
    definitions, uses = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            named = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            if named and node.name.startswith("_") and not node.name.startswith("__"):
                definitions.append((path.name, node.name, node))
            used = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    used.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    used.add(sub.attr)
                elif isinstance(sub, ast.alias):
                    used.add(sub.name)
            uses.append((node, used))
    return definitions, uses


def test_every_private_definition_is_used_outside_itself():
    definitions, uses = private_definitions_and_uses()
    assert definitions, "found no private definitions to check"
    unused = [
        f"{module}: {name}"
        for module, name, node in definitions
        if not any(name in used for other, used in uses if other is not node)
    ]
    assert unused == []
