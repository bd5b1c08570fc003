"""Every function, class and method the library defines is used.

A definition in ``src/hypercert/*.py`` counts as used when code in
``src/`` outside its own body names it (as a bare name or an attribute),
when ``hypercert.__all__`` exports it, or when the benchmark's tracer hooks
it by (module, name).  Dunder methods are called implicitly and are skipped.
Test-only helpers belong in ``tests/oracles.py``.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hypercert"

# Used from outside the library's own code, each for the reason given.
ALLOWED = {
    ("cli", "_ArgumentParser.error"): "argparse calls it on a usage error",
    ("wire", "dump_poly_text"): "the writer of the poly-file format that parse_poly_text reads",
}


def referenced_names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def definitions(tree):
    """(qualified name, node) of module-level and class-level definitions."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, defs):
                    yield f"{node.name}.{member.name}", member


def exported_names():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    raise AssertionError("hypercert/__init__.py defines no __all__")


def hooked_names():
    """(module, name) pairs listed in perfbench/tracer.py's WRAPPED table."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return {(row.elts[0].value, row.elts[1].value) for row in node.value.elts}
    raise AssertionError("perfbench/tracer.py defines no WRAPPED table")


def test_no_unreferenced_definitions():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    uses = Counter(name for tree in trees.values() for name in referenced_names(tree))
    exported = exported_names()
    hooked = hooked_names()
    unused = []
    for module, tree in trees.items():
        for qualname, node in definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in exported or (module, qualname) in hooked or (module, qualname) in ALLOWED:
                continue
            own = sum(1 for n in referenced_names(node) if n == name)
            if uses[name] - own == 0:
                unused.append(f"{module}.{qualname}")
    assert unused == [], f"defined but never used in src/: {unused}"


def test_allowlist_is_current():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    defined = {(module, qualname) for module, tree in trees.items() for qualname, _ in definitions(tree)}
    assert set(ALLOWED) <= defined
