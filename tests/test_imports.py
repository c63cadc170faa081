"""Every top-level import in src/ and tests/ is used by its file.

Names listed in a module's ``__all__`` count as used.  A package's
``__init__.py`` exists to re-export its modules' names, so it is exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(tree):
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_no_unused_top_level_imports():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert len(files) > 10
    found = []
    for path in files:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for line, name in unused_imports(tree):
            found.append("%s:%d %s" % (path.relative_to(ROOT), line, name))
    assert found == []


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("import os\nimport sys\nfrom math import pi, tau\n__all__ = ['tau']\nsys.exit(pi)\n")
    assert unused_imports(tree) == [(1, "os")]
