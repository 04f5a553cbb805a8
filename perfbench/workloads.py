"""The four benchmark workloads.

Each workload turns the workload seed into its inputs, builds its circuits
(the timed set-up) and names the steps of one timed pass.  Every call into
the library goes through a module attribute (``qaoa.energy``, never a name
imported from it), so the traced run can wrap the function the caller
looks up.  ``toy=True`` shrinks every input for the smoke test.
"""
from __future__ import annotations

import importlib
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from qaoaforge import ising, model, qaoa, verify

# the package re-exports the function optimize() under the submodule's name
optimize = importlib.import_module("qaoaforge.optimize")

# criterion-10 instance: capacity 7 and penalties (1.0, 0.25) give a unique
# encoded optimum that is also the constrained optimum
KNAPSACK = dict(values=(4, 4, 2, 2, 4), weights=(4, 3, 1, 2, 1), capacity=7, p1=1.0, p2=0.25)
SCAN_RESOLUTION = 33  # the CLI's default
VERIFY_SEED = 0       # the CLI's default; the suites size their instances from it
SUITES = ("gates", "oracle", "symmetry", "trotter")


def optimizer_seed(seed: int, pass_index: int) -> int:
    """Passes 0 and 1 share a seed so every run solves one seed twice."""
    return seed * 1000 + max(pass_index - 1, 0)


def regular_graph(rng, vertices: int, degree: int) -> list[tuple[int, int]]:
    """Uniform simple d-regular graph by the pairing model with rejection."""
    while True:
        stubs = rng.permutation(np.repeat(np.arange(vertices), degree))
        pairs = stubs.reshape(-1, 2)
        edges = {(int(min(a, b)), int(max(a, b))) for a, b in pairs}
        if len(edges) == len(pairs) and all(a != b for a, b in edges):
            return sorted(edges)


@dataclass
class Op:
    """One user-visible operation of a pass: a solve, a scan or a suite run."""

    kind: str
    step: str
    error: str | None = None
    result: object = None


@dataclass(frozen=True)
class Workload:
    name: str
    # host-speed kernel: qubits, layers, energy repeats, 8x8 propagator
    # repeats, and its nominal seconds on the host described in README.md
    reference: tuple[int, int, int, int, float]
    inputs: Callable[[int, bool], dict]                  # untimed: seed -> raw inputs
    problem: Callable[[dict], object] | None             # binary problem the oracle enumerates
    setup: Callable[[dict], dict]                        # timed: raw inputs -> circuits
    steps: tuple[tuple[str, Callable[[dict, int, int, bool], Op]], ...]
    warmup: Callable[[dict, bool], None]


# ------------------------------------------------------------ spsa-knapsack5

def _knapsack_inputs(seed: int, toy: bool) -> dict:
    return KNAPSACK


def _knapsack_problem(inputs: dict):
    return model.build_knapsack(**inputs)


def _knapsack_setup(inputs: dict) -> dict:
    return {"solve": qaoa.build_circuit(ising.to_spin(_knapsack_problem(inputs)), layers=5)}


def _knapsack_solve(ctx: dict, seed: int, pass_index: int, toy: bool) -> Op:
    cfg = optimize.OptimizerConfig(
        method="spsa", restarts=2 if toy else 10, max_iters=3 if toy else 50,
        seed=optimizer_seed(seed, pass_index),
    )
    return Op("solve", "solve", result=optimize.optimize(ctx["solve"], cfg))


def _knapsack_warmup(ctx: dict, toy: bool) -> None:
    _knapsack_solve(ctx, 0, 0, True)


# --------------------------------------------------------------- gd-maxcut12

def _maxcut_inputs(seed: int, toy: bool) -> dict:
    vertices = 6 if toy else 12
    return {"vertices": vertices, "edges": regular_graph(np.random.default_rng([seed, vertices]), vertices, 3)}


def _maxcut_problem(inputs: dict):
    return model.build_maxcut(inputs["vertices"], inputs["edges"])


def _maxcut_setup(inputs: dict) -> dict:
    h = ising.to_spin(_maxcut_problem(inputs))
    return {"solve": qaoa.build_circuit(h, layers=3), "scan": qaoa.build_circuit(h, layers=1)}


def _maxcut_solve(ctx: dict, seed: int, pass_index: int, toy: bool) -> Op:
    # gradient method and learning rate stay at their defaults on purpose
    cfg = optimize.OptimizerConfig(
        method="gd", restarts=2, max_iters=2 if toy else 15, seed=optimizer_seed(seed, pass_index)
    )
    return Op("solve", "solve", result=optimize.optimize(ctx["solve"], cfg))


def _maxcut_scan(ctx: dict, seed: int, pass_index: int, toy: bool) -> Op:
    return Op("scan", "scan", result=qaoa.landscape_scan(ctx["scan"], 5 if toy else SCAN_RESOLUTION))


def _maxcut_warmup(ctx: dict, toy: bool) -> None:
    _maxcut_solve(ctx, 0, 0, True)
    qaoa.landscape_scan(ctx["scan"], 5)


# -------------------------------------------------------- statevector-qubo18

def _qubo_inputs(seed: int, toy: bool) -> dict:
    n = 8 if toy else 18
    rng = np.random.default_rng([seed, n])
    return {"Q": rng.normal(0.0, 1.0, (n, n)), "c": rng.normal(0.0, 1.0, n)}


def _qubo_problem(inputs: dict):
    return model.build_qubo(inputs["Q"], inputs["c"])


def _qubo_setup(inputs: dict) -> dict:
    return {"solve": qaoa.build_circuit(ising.to_spin(_qubo_problem(inputs)), layers=3)}


def _qubo_solve(ctx: dict, seed: int, pass_index: int, toy: bool) -> Op:
    # a0 is fixed so no calibration probes run: 4 energies, then the final
    # histogram and energy breakdown re-run the circuit twice
    cfg = optimize.OptimizerConfig(
        method="spsa", restarts=1, max_iters=1, a0=0.5, seed=optimizer_seed(seed, pass_index)
    )
    return Op("solve", "solve", result=optimize.optimize(ctx["solve"], cfg))


def _qubo_warmup(ctx: dict, toy: bool) -> None:
    qaoa.energy(ctx["solve"], qaoa.QaoaParams(beta=[0.1, 0.2, 0.3], gamma=[0.3, 0.2, 0.1]))


# ---------------------------------------------------------------- verify-all

def _verify_setup(inputs: dict) -> dict:
    # the suites build their own instances, so what a verify user waits for
    # before the first check is a fresh interpreter importing the package
    subprocess.run([sys.executable, "-c", "import qaoaforge.verify"], check=True)
    return {}


def _suite_step(name: str):
    def step(ctx: dict, seed: int, pass_index: int, toy: bool) -> Op:
        return Op("suite", name, result=verify.run_suite(name, seed=VERIFY_SEED))
    return step


def _verify_warmup(ctx: dict, toy: bool) -> None:
    verify.run_suite("gates", seed=VERIFY_SEED)


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "spsa-knapsack5", (5, 5, 50, 0, 0.0107),
            _knapsack_inputs, _knapsack_problem, _knapsack_setup,
            (("solve", _knapsack_solve),), _knapsack_warmup,
        ),
        Workload(
            "gd-maxcut12", (12, 3, 10, 0, 0.0136),
            _maxcut_inputs, _maxcut_problem, _maxcut_setup,
            (("solve", _maxcut_solve), ("scan", _maxcut_scan)), _maxcut_warmup,
        ),
        Workload(
            "statevector-qubo18", (18, 1, 1, 0, 0.057),
            _qubo_inputs, _qubo_problem, _qubo_setup,
            (("solve", _qubo_solve),), _qubo_warmup,
        ),
        Workload(
            "verify-all", (5, 5, 50, 100, 0.0131),
            lambda seed, toy: {}, None, _verify_setup,
            tuple((s, _suite_step(s)) for s in SUITES), _verify_warmup,
        ),
    )
}
