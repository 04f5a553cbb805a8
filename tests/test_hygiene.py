"""Source hygiene: unused imports, uncalled helpers, private reads across modules, BLAS calls in the mixer, and README drift from the CLI and verify suites."""
import argparse
import ast
import inspect
import re
from pathlib import Path

from qaoaforge import cli, simulator, verify

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


def public_definitions(source: str) -> list[str]:
    """Public module-level functions and classes, and public methods of those classes."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [m.name for m in node.body
                      if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    return names


def names_read(source: str) -> set[str]:
    """Names a module reads, looks up as attributes or imports; definitions do not count."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def test_no_uncalled_public_helpers():
    demo = "class A:\n    def used(self): pass\n    def unused(self): pass\ndef f(): A().used()\n"
    assert [n for n in public_definitions(demo) if n not in names_read(demo)] == ["unused", "f"]
    sources = sorted((ROOT / "src" / "qaoaforge").glob("*.py"))
    named = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    # a re-export in the package __init__ is not a caller
    callers = [p for p in sources if p.name != "__init__.py"] + sorted((ROOT / "perfbench").glob("*.py"))
    for p in callers:
        named |= names_read(p.read_text())
    uncalled = {
        str(p.relative_to(ROOT)): names
        for p in sources
        if (names := [n for n in public_definitions(p.read_text()) if n not in named])
    }
    assert uncalled == {}


def private_reads(source: str) -> list[str]:
    """Underscore names a module imports, or reads as attributes of a name an import binds."""
    tree = ast.parse(source)
    bound, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
            if isinstance(node, ast.ImportFrom):
                found += [a.name for a in node.names if a.name.startswith("_")]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound
                and node.attr.startswith("_") and not node.attr.endswith("__")):
            found.append(f"{node.value.id}.{node.attr}")
    return sorted(found)


GATE_KERNELS = {"apply_rx", "apply_rz", "apply_cnot", "apply_rzz", "apply_rzk", "apply_rzk_ladder"}


def test_circuit_and_optimizer_use_only_public_kernels():
    # verify is the oracle module: it builds gate-level references and may read internals
    demo = "from . import simulator as sim\nfrom .ising import _canon\nimport numpy as np\n"
    demo += "sim._halves(np._x, self._y, sim.__name__)\n"
    assert private_reads(demo) == ["_canon", "np._x", "sim._halves"]
    for name in ("qaoa.py", "optimize.py"):
        source = (ROOT / "src" / "qaoaforge" / name).read_text()
        assert private_reads(source) == [], name
        assert names_read(source) & GATE_KERNELS == set(), name


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


def test_readme_check_count_matches_suites():
    claimed = re.search(r"`qaoaforge verify` runs (\d+) checks", (ROOT / "README.md").read_text())
    assert claimed is not None
    assert int(claimed.group(1)) == sum(len(verify.run_suite(name)) for name in verify.SUITES)


BLAS_NAMES = {"matmul", "dot", "vdot", "einsum", "tensordot"}


def blas_calls(source: str, functions) -> list[str]:
    """Matrix-product names and @ operators inside the named module-level functions."""
    found = []
    for fn in ast.parse(source).body:
        if isinstance(fn, ast.FunctionDef) and fn.name in functions:
            for node in ast.walk(fn):
                if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                    found.append(f"{fn.name}: @")
                name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
                if name in BLAS_NAMES:
                    found.append(f"{fn.name}: {name}")
    return found


def test_mixer_makes_no_blas_call():
    # a blocked-matmul mixer ran faster on one BLAS thread, but 2.7x slower
    # with threaded BLAS on a busy 2-core host, and it sums in another order
    demo = "def f(a, b):\n    a @= b\n    return np.dot(a, b) @ b\ndef g(a):\n    return np.einsum('i', a)\n"
    assert blas_calls(demo, {"f"}) == ["f: @", "f: @", "f: dot"]
    kernels = {"apply_mixer", "_rx", "_rx_coefficients", "_bit_view"}
    assert all(callable(getattr(simulator, name, None)) for name in kernels)
    assert blas_calls(inspect.getsource(simulator), kernels) == []
