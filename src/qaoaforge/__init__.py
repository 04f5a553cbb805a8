"""Exact-simulation QAOA toolkit for QUBO/PUBO problems.

Build a binary problem (directly or through penalty encodings), convert it
to a diagonal spin Hamiltonian, run the layered circuit on a statevector
simulator, and optimize the angles with SPSA or gradient descent.
"""

__version__ = "0.1.0"

from .errors import OptimizerDivergence, ProblemFormatError, SizeCapError
from .model import (
    BRUTE_FORCE_CAP,
    BruteForceResult,
    ConstraintKind,
    ConstraintSpec,
    PuboProblem,
    QuboProblem,
    apply_penalty,
    brute_force_solve,
    build_knapsack,
    build_maxcut,
    build_pubo,
    build_qubo,
    evaluate_pubo,
    evaluate_qubo,
    load_problem,
    problem_from_dict,
)
from .ising import (
    SpinHamiltonian,
    diagonalize,
    evaluate_spin,
    pubo_to_spin,
    qubo_to_spin,
    scale,
    scaling_factor,
    to_spin,
)
from .simulator import STATEVECTOR_CAP, StateVector, init_plus
from .qaoa import (
    QaoaCircuitSpec,
    QaoaParams,
    build_circuit,
    energies,
    energy,
    energy_and_gradient,
    landscape_scan,
    restricted_domain,
    run,
)
from .optimize import (
    OptimizerConfig,
    RunRecord,
    optimize,
)

__all__ = [
    "__version__",
    "BRUTE_FORCE_CAP",
    "STATEVECTOR_CAP",
    "BruteForceResult",
    "ConstraintKind",
    "ConstraintSpec",
    "OptimizerConfig",
    "OptimizerDivergence",
    "ProblemFormatError",
    "PuboProblem",
    "QaoaCircuitSpec",
    "QaoaParams",
    "QuboProblem",
    "RunRecord",
    "SizeCapError",
    "SpinHamiltonian",
    "StateVector",
    "apply_penalty",
    "brute_force_solve",
    "build_circuit",
    "build_knapsack",
    "build_maxcut",
    "build_pubo",
    "build_qubo",
    "diagonalize",
    "energies",
    "energy",
    "energy_and_gradient",
    "evaluate_pubo",
    "evaluate_qubo",
    "evaluate_spin",
    "init_plus",
    "landscape_scan",
    "load_problem",
    "optimize",
    "problem_from_dict",
    "pubo_to_spin",
    "qubo_to_spin",
    "restricted_domain",
    "run",
    "scale",
    "scaling_factor",
    "to_spin",
]
