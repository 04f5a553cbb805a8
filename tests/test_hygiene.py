"""Source hygiene: unused imports, uncalled helpers, unread constants, private reads across modules, BLAS calls in the mixer, one forward route, Python 3.10 syntax, names perfbench reads, and README drift from the CLI, verify suites and module names."""
import argparse
import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qaoaforge
from qaoaforge import cli, qaoa, simulator, verify

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
    # a name in qaoaforge.__all__ is the public API; an import in the package
    # __init__ or a mention in README is not a caller
    named = set(qaoaforge.__all__)
    callers = [p for p in sources if p.name != "__init__.py"] + sorted((ROOT / "perfbench").glob("*.py"))
    for p in callers:
        named |= names_read(p.read_text())
    uncalled = {
        str(p.relative_to(ROOT)): names
        for p in sources
        if (names := [n for n in public_definitions(p.read_text()) if n not in named])
    }
    assert uncalled == {}


def module_constants(source: str) -> list[str]:
    """UPPER_CASE names a module assigns at its top level."""
    names = []
    for node in ast.parse(source).body:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
        names += [t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()]
    return names


def values_read(source: str) -> set[str]:
    """Names a module loads or looks up as attributes; assignments and imports do not count."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) or isinstance(node, ast.Attribute)}


def test_no_unread_constants():
    # dead helpers go, and so do dead constants: each is read in src or perfbench
    demo = "A = 1\nB: int = A\nc = 2\nfrom m import D\ndef f():\n    E = 3\n    return m.F\n"
    assert module_constants(demo) == ["A", "B"]
    assert [n for n in module_constants(demo) if n not in values_read(demo)] == ["B"]
    assert values_read(demo) == {"A", "F", "int", "m"}
    sources = sorted((ROOT / "src" / "qaoaforge").glob("*.py"))
    read = set()
    for p in sources + sorted((ROOT / "perfbench").glob("*.py")):
        read |= values_read(p.read_text())
    constants = {p.name: module_constants(p.read_text()) for p in sources}
    assert sum(map(len, constants.values())) >= 20
    unread = {name: [c for c in names if c not in read] for name, names in constants.items()}
    assert {name: names for name, names in unread.items() if names} == {}


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


GATE_KERNELS = {"apply_rx", "apply_rz", "apply_cnot", "apply_rzk_ladder"}


def test_circuit_and_optimizer_use_only_public_kernels():
    # verify is the oracle module: it builds gate-level references and may read internals
    demo = "from . import simulator as sim\nfrom .ising import _canon\nimport numpy as np\n"
    demo += "sim._halves(np._x, self._y, sim.__name__)\n"
    assert private_reads(demo) == ["_canon", "np._x", "sim._halves"]
    for name in ("qaoa.py", "optimize.py"):
        source = (ROOT / "src" / "qaoaforge" / name).read_text()
        assert private_reads(source) == [], name
        assert names_read(source) & GATE_KERNELS == set(), name


def module_functions(source: str) -> list[str]:
    """Public module-level functions, classes and methods left out."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def test_simulator_holds_only_the_engine():
    # every public simulator function serves the circuit, the optimizer or the dense oracles;
    # the gate-level kernels of the reference circuit live in verify
    demo = "def f(): pass\ndef _g(): pass\nclass C:\n    def h(self): pass\n"
    assert module_functions(demo) == ["f"]
    read = set()
    for name in ("qaoa.py", "optimize.py", "dense.py"):
        read |= names_read((ROOT / "src" / "qaoaforge" / name).read_text())
    engine = module_functions(inspect.getsource(simulator))
    assert engine and [n for n in engine if n not in read] == []
    assert all(callable(getattr(verify, name, None)) for name in GATE_KERNELS)


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
    # with threaded BLAS on a busy 2-core host, and it sums in another order;
    # the tile jobs and the per-tile phase step run on every core already
    demo = "def f(a, b):\n    a @= b\n    return np.dot(a, b) @ b\ndef g(a):\n    def h():\n        return a @ a\n"
    assert blas_calls(demo, {"f"}) == ["f: @", "f: @", "f: dot"]
    assert blas_calls(demo, {"g"}) == ["g: @"]
    kernels = {"apply_mixer", "_rx", "_rx_coefficients", "_bit_view", "_sweep", "_row_angle", "_tiled", "_tiles",
               "apply_diagonal_phase", "apply_level_phase", "_phase"}
    assert all(callable(getattr(simulator, name, None)) for name in kernels)
    assert blas_calls(inspect.getsource(simulator), kernels) == []
    # the scan's beta map too, so a grid does not depend on the BLAS build
    assert blas_calls(inspect.getsource(qaoa), {"landscape_scan"}) == []


def test_small_states_start_no_thread():
    # up to TILE_QUBITS every evolution runs on the calling thread: importing the
    # package and evolving starts no thread and imports no pool module (importing
    # concurrent.futures pulls in logging, 0.6 MiB); past it, the first sweep
    # starts the pool's _WORKERS - 1 threads
    script = """
import sys, threading
import numpy as np
import qaoaforge
from qaoaforge import qaoa, optimize, simulator, verify
before = threading.active_count()
for n in (3, 12, simulator.TILE_QUBITS):
    for h in (qaoaforge.SpinHamiltonian(n, {(q, (q + 1) % n): 1.0 for q in range(n - 1)}),
              verify.random_spin_mixed(np.random.default_rng(n), n)):
        spec, spec1 = qaoa.build_circuit(h, layers=2), qaoa.build_circuit(h)
        rows = np.full((2, 4), 0.3)
        qaoa.energy(spec, qaoa.QaoaParams.from_vector(rows[0]))
        qaoa.energies(spec, rows), qaoa.shot_energies(spec, rows, 10, [1, 2]), qaoa.energy_and_gradient(spec, rows)
        qaoa.landscape_scan(spec1, 3)
        optimize(spec, qaoaforge.OptimizerConfig(method="gd", max_iters=1, restarts=1))
small = threading.active_count() - before, sorted({"queue", "concurrent.futures", "logging"} & set(sys.modules))
qaoa.energy(qaoa.build_circuit(verify.random_spin_mixed(np.random.default_rng(0), 16)), qaoa.QaoaParams([0.1], [0.2]))
print(repr((small, threading.active_count() - before, simulator._WORKERS)))
"""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True).stdout
    small, large, workers = ast.literal_eval(out)
    assert small == (0, [])
    assert large == workers - 1


def test_readme_module_names_resolve():
    # every backticked `module.name` (or `qaoaforge.module.name`) names an attribute of that module
    modules = "|".join(p.stem for p in (ROOT / "src" / "qaoaforge").glob("*.py") if not p.stem.startswith("_"))
    spans = re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())
    refs = {m.group(0).removeprefix("qaoaforge.") for span in spans
            for m in re.finditer(rf"\bqaoaforge(?:\.\w+)+|\b(?:{modules})(?:\.\w+)+", span)}
    assert len(refs) >= 10, refs
    missing = []
    for ref in sorted(refs):
        obj = importlib.import_module("qaoaforge." + ref.split(".")[0])
        for name in ref.split(".")[1:]:
            obj = getattr(obj, name, None)
        if obj is None:
            missing.append(ref)
    assert missing == []


def qaoaforge_references(source: str) -> list[tuple[str, str]]:
    """(module, name) for every name a source reads from a qaoaforge module: names imported from one,
    and attributes of a name bound by `from qaoaforge import m` or `m = importlib.import_module("qaoaforge.m")`."""
    tree = ast.parse(source)
    modules, refs = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qaoaforge":
            refs.update((node.module, a.name) for a in node.names)
            if node.module == "qaoaforge":
                modules.update((a.asname or a.name, f"qaoaforge.{a.name}") for a in node.names)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and ast.unparse(node.value.func) == "importlib.import_module" and node.value.args
              and isinstance(arg := node.value.args[0], ast.Constant) and str(arg.value).startswith("qaoaforge.")):
            modules.update((t.id, arg.value) for t in node.targets if isinstance(t, ast.Name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            refs.add((modules[node.value.id], node.attr))
    return sorted(refs)


def test_perfbench_reads_only_names_that_exist():
    # perfbench calls the library through module attributes and runs only in a benchmark,
    # so a renamed function would surface there; parsing it (running nothing) catches it here
    demo = ("import importlib\nfrom qaoaforge import qaoa as q\nfrom qaoaforge.errors import E\n"
            "o = importlib.import_module(\"qaoaforge.optimize\")\nq.run(o.optimize(x.y))\n")
    assert qaoaforge_references(demo) == [("qaoaforge", "qaoa"), ("qaoaforge.errors", "E"),
                                          ("qaoaforge.optimize", "optimize"), ("qaoaforge.qaoa", "run")]
    refs = [r for p in sorted((ROOT / "perfbench").glob("*.py")) for r in qaoaforge_references(p.read_text())]
    assert len(refs) >= 15, refs
    assert [f"{m}.{name}" for m, name in refs if not hasattr(importlib.import_module(m), name)] == []


def attribute_sites(source: str, names) -> dict[str, list[str]]:
    """For each attribute name read, the module-level definition (or '<module>') of every read."""
    sites = {}
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr in names:
                sites.setdefault(node.attr, []).append(owner)
    return sites


def test_qaoa_applies_u_f_through_one_route():
    # every U_f in qaoa (layer loop, scan column, adjoint undo) goes through the one
    # phase route, so no caller can bypass the level table
    demo = "x = sim.a\ndef f():\n    sim.a(sim.b)\nclass C:\n    def g(self):\n        self.b\n"
    assert attribute_sites(demo, {"a", "b"}) == {"a": ["<module>", "f"], "b": ["f", "C"]}
    source = (ROOT / "src" / "qaoaforge" / "qaoa.py").read_text()
    kernels = {"apply_diagonal_phase", "apply_level_phase"}
    assert attribute_sites(source, kernels) == dict.fromkeys(kernels, ["_apply_uf"])


def test_angle_rows_evolve_through_one_forward_route():
    # energies (and so landscape_scan), shot_energies and energy_and_gradient start their
    # states in _forward; run (one state) is the only other start
    source = (ROOT / "src" / "qaoaforge" / "qaoa.py").read_text()
    assert attribute_sites(source, {"init_plus"}) == {"init_plus": ["run", "_forward"]}


def test_sources_parse_as_python_3_10():
    # pyproject declares requires-python >= 3.10; this interpreter may be newer
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
    paths = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))
    assert len(paths) >= 20
    for p in paths:
        ast.parse(p.read_text(), filename=str(p), feature_version=(3, 10))
