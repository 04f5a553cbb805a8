"""Source hygiene: unused imports, and README drift from the CLI."""
import argparse
import ast
import re
from pathlib import Path

from qaoaforge import cli

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


def test_readme_lists_every_cli_flag():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("### Subcommands and flags\n\n", 1)[1].split("\n\n", 1)[0]
    documented = {}
    for bullet in re.split(r"^- ", section, flags=re.M)[1:]:
        name = re.match(r"`(\w+)", bullet).group(1)
        documented[name] = set(re.findall(r"--[a-z][a-z-]*", bullet))
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actual = {
        name: {opt for action in subparser._actions for opt in action.option_strings
               if opt.startswith("--") and opt != "--help"}
        for name, subparser in sub.choices.items()
    }
    assert documented == actual
