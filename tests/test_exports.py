"""The package's export list names only what the package defines, and only
what the package or its benchmark uses."""

import ast
from pathlib import Path

import polycert

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    missing = [name for name in polycert.__all__ if not hasattr(polycert, name)]
    assert missing == []
    assert len(set(polycert.__all__)) == len(polycert.__all__)


def _references(source: str) -> set[str]:
    """Names that ``source`` reads, as loaded names or attribute names,
    outside the definition of the name itself: an import, an assignment
    target, or a name read only inside its own top-level ``def``, ``class``
    or assignment does not count."""
    read = set()
    for stmt in ast.parse(source).body:
        names = {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(stmt)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                 or isinstance(node, ast.Attribute)}
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        elif isinstance(stmt, ast.Assign):
            names -= {t.id for t in stmt.targets if isinstance(t, ast.Name)}
        read |= names
    return read


def test_every_exported_name_has_a_caller():
    """Each name in ``polycert.__all__`` is read somewhere in the library
    (outside ``__init__.py``) or in the benchmark; API that only its own
    tests call belongs in the tests."""
    assert _references(
        "from m import a\nb = 1\ndef c(): return c()\nclass g:\n    h: g\nd(e.f, g)\n"
    ) == {"d", "e", "f", "g"}
    sources = [p for p in sorted((ROOT / "src" / "polycert").glob("*.py"))
               if p.name != "__init__.py"]
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    assert len(sources) > 10, "no sources found; the scan is broken"
    read = set().union(*(_references(p.read_text()) for p in sources))
    assert sorted(set(polycert.__all__) - read) == []
