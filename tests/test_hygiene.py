"""Source hygiene: every name a module imports is used in that module."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no Name node in the module reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_unused_imports():
    assert unused_imports("import os\nimport sys as s\nfrom a import b, c\ns.exit(c)\n") == ["b", "os"]
    # the package __init__ imports names only to re-export them
    paths = [p for p in (ROOT / "src" / "qaoaforge").glob("*.py") if p.name != "__init__.py"]
    paths += (ROOT / "tests").glob("*.py")
    offenders = {
        str(p.relative_to(ROOT)): names
        for p in sorted(paths)
        if (names := unused_imports(p.read_text()))
    }
    assert offenders == {}
