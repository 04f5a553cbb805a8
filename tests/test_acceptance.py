"""End-to-end acceptance checks for the whole package.

Each test covers one numbered criterion and prints a single
``[PASS]/[FAIL] criterion NN`` line with the measured numbers and the
elapsed time against its runtime budget, then asserts.  Run with ``-rA``
(the default here) to see the lines for passing tests too.
"""

import itertools
import math
import time

import numpy as np

from qaoaforge import qaoa, verify as vf
from qaoaforge.ising import qubo_to_spin, to_spin
from qaoaforge.model import brute_force_solve, build_knapsack, build_maxcut
from qaoaforge.optimize import OptimizerConfig, optimize


def _finish(num, label, ok, detail, t0, budget):
    elapsed = time.perf_counter() - t0
    within = elapsed < budget
    status = "PASS" if (ok and within) else "FAIL"
    line = (
        f"[{status}] criterion {num:02d} {label}: {detail}"
        f" [{elapsed:.2f}s, budget {budget:g}s]"
    )
    print(line)
    assert ok, line
    assert within, line


def test_criterion_01_two_qubit_phase_rotation():
    t0 = time.perf_counter()
    diag = vf.check_rzz_diagonal(trials=100, tol=1e-12)
    swap = vf.check_rzz_swap(trials=100, tol=1e-12)
    _finish(
        1, "two-qubit phase rotation",
        diag.passed and swap.passed,
        f"diagonal form {diag.detail}; swapped qubits {swap.detail}",
        t0, 1,
    )


def test_criterion_02_parity_ladder_matches_dense():
    t0 = time.perf_counter()
    r = vf.check_rzk_ladder_vs_dense(kmax=5, trials=20, tol=1e-12)
    _finish(2, "CNOT parity ladder vs dense exponential", r.passed, r.detail, t0, 5)


def test_criterion_03_conversion_round_trip():
    t0 = time.perf_counter()
    rq = vf.check_qubo_roundtrip(instances=200, nmax=8, tol=1e-9)
    rp = vf.check_pubo_roundtrip(instances=100, nmax=8, dmax=4, tol=1e-9)
    _finish(
        3, "binary-to-spin round trip",
        rq.passed and rp.passed,
        f"quadratic {rq.detail}; polynomial {rp.detail}",
        t0, 30,
    )


def test_criterion_04_angle_sign_symmetry():
    t0 = time.perf_counter()
    r = vf.check_point_symmetry(instances=50, nmax=6, pmax=3, points=20, tol=1e-10)
    _finish(4, "energy symmetric under negating all angles", r.passed, r.detail, t0, 60)


def test_criterion_05_beta_pi_periodicity():
    t0 = time.perf_counter()
    even = vf.check_beta_periodicity_even(instances=50, nmax=6, pmax=3, points=20, tol=1e-10)
    odd = vf.check_beta_shift_detects_odd(
        instances=50, nmax=6, search_points=100, threshold=1e-3, min_found=45
    )
    _finish(
        5, "pi shift in beta invisible iff all terms have even degree",
        even.passed and odd.passed,
        f"even-degree {even.detail}; odd-degree {odd.detail}",
        t0, 90,
    )


def test_criterion_06_fast_path_equivalence():
    t0 = time.perf_counter()
    r = vf.check_fast_gate_agreement(instances=50, n=5, p=3, tol=1e-10)
    _finish(6, "diagonal fast path vs gate decomposition", r.passed, r.detail, t0, 30)


def test_criterion_07_split_step_convergence():
    t0 = time.perf_counter()
    r = vf.check_trotter_convergence(
        hams=5, ps=(4, 8, 16, 32, 64), ratio_window=(1.5, 2.5), ratio_from=16
    )
    short = "error strictly decreasing with halving ratio for 5/5 Hamiltonians"
    _finish(7, "split-step error halves as slices double",
            r.passed, short if r.passed else r.detail, t0, 60)


def test_criterion_08_gradient_consistency():
    t0 = time.perf_counter()
    r = vf.check_gradient_methods_agree(instances=30, nmax=5, pmax=3, points=5, rtol=1e-6)
    _finish(8, "shift-rule gradient vs central differences", r.passed, r.detail, t0, 60)


def test_criterion_09_ring_maxcut_end_to_end():
    t0 = time.perf_counter()
    problem = build_maxcut(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    oracle = brute_force_solve(problem)
    assert set(oracle.optimum_set) == {"0101", "1010"}
    assert oracle.best_cost == -4.0
    spec = qaoa.build_circuit(qubo_to_spin(problem), layers=2)
    hits = 0
    for seed in range(10):
        cfg = OptimizerConfig(method="spsa", max_iters=500, restarts=10, seed=seed)
        rec = optimize(spec, cfg)
        cut = -rec.best_cost
        if rec.best_bitstring in oracle.optimum_set and abs(cut - 4.0) < 1e-12:
            hits += 1
    _finish(
        9, "4-ring max cut, 2 layers",
        hits >= 9,
        f"optimal cut of 4 recovered for {hits}/10 seeds (need >= 9)",
        t0, 120,
    )


def test_criterion_10_knapsack_end_to_end():
    t0 = time.perf_counter()
    values, weights, capacity = (4, 4, 2, 2, 4), (4, 3, 1, 2, 1), 7

    # constrained oracle by direct enumeration, computed before anything else
    best_value, best_xs = -1, []
    for x in itertools.product((0, 1), repeat=5):
        if sum(w * b for w, b in zip(weights, x)) > capacity:
            continue
        value = sum(v * b for v, b in zip(values, x))
        if value > best_value:
            best_value, best_xs = value, [x]
        elif value == best_value:
            best_xs.append(x)
    assert best_value == 12 and len(best_xs) == 1
    oracle_string = "".join(str(b) for b in best_xs[0])

    # capacity 7 and penalty weights (1.0, 0.25) give this instance a unique
    # encoded minimum that coincides with the constrained optimum
    problem = build_knapsack(values, weights, capacity, p1=1.0, p2=0.25)
    encoded = brute_force_solve(problem)
    assert encoded.optimum_set == (oracle_string,)

    spec = qaoa.build_circuit(to_spin(problem), layers=5)
    hits = 0
    for seed in range(10):
        cfg = OptimizerConfig(method="spsa", max_iters=2000, restarts=10, seed=seed)
        rec = optimize(spec, cfg)
        x = [int(ch) for ch in rec.best_bitstring]
        weight = sum(w * b for w, b in zip(weights, x))
        value = sum(v * b for v, b in zip(values, x))
        if weight <= capacity and value == best_value:
            hits += 1
    _finish(
        10, "5-item knapsack, 5 layers",
        hits >= 7,
        f"feasible optimum (value {best_value}) recovered for {hits}/10 seeds (need >= 7)",
        t0, 600,
    )


def test_criterion_11_layer_capacity_monotone():
    t0 = time.perf_counter()
    worst_pad = -math.inf
    worst_opt = -math.inf
    for i in range(10):
        rng = np.random.default_rng([11, i])
        n = int(rng.integers(2, 6))
        h = vf.random_spin_mixed(rng, n)
        cfg = OptimizerConfig(method="spsa", max_iters=250, restarts=3, seed=100 + i)

        rec1 = optimize(qaoa.build_circuit(h, layers=1), cfg)
        e_star = rec1.best_energy

        padded = qaoa.QaoaParams(
            beta=list(rec1.final_params["beta"]) + [0.0],
            gamma=list(rec1.final_params["gamma"]) + [0.0],
        )
        spec2 = qaoa.build_circuit(h, layers=2)
        worst_pad = max(worst_pad, qaoa.energy(spec2, padded) - e_star)

        rec2 = optimize(spec2, cfg, initial_params=padded)
        worst_opt = max(worst_opt, rec2.best_energy - e_star)
    ok = worst_pad <= 1e-12 and worst_opt <= 1e-12
    _finish(
        11, "an extra zero-angle layer never hurts",
        ok,
        f"worst padded-minus-optimum gap {worst_pad:.3e} before, "
        f"{worst_opt:.3e} after reoptimizing (tolerance 1e-12)",
        t0, 300,
    )


def test_criterion_12_penalty_exactness():
    t0 = time.perf_counter()
    exact = vf.check_penalties_exact()
    biased = vf.check_unbalanced_inexact()
    _finish(
        12, "penalty encodings",
        exact.passed and biased.passed,
        f"{exact.detail}; slack-free inequality: {biased.detail}",
        t0, 10,
    )
