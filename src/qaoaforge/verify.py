"""Executable checks of the structural claims behind the circuit construction.

Each check builds its own random instances from a seed, compares two
independent computation routes (bit-kernel vs dense matrix, expansion vs
closed form, exhaustive enumeration vs spin diagonal), and reports a
CheckResult.  The CLI verify command groups them into suites; the
acceptance tests call them directly with pinned counts and tolerances.
The gate-level kernels (R_x, R_z, CNOT, the CNOT ladder) live here, not in
the engine: gate_decomposed_run is the reference the engine is checked against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from math import comb, factorial

import numpy as np

from . import dense, qaoa
from . import simulator as sim
from .ising import SpinHamiltonian, diagonalize, parity_sign, pubo_to_spin, qubo_to_spin
from .model import (
    ConstraintKind,
    ConstraintSpec,
    PuboProblem,
    QuboProblem,
    _canon,
    apply_penalty,
    brute_force_solve,
    build_maxcut,
    build_pubo,
    build_qubo,
    evaluate_qubo,
    whole_number,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, worst: float, tol: float, extra: str = "") -> CheckResult:
    msg = f"max deviation {worst:.3e} (tolerance {tol:.1e})"
    if extra:
        msg += "; " + extra
    return CheckResult(name, worst <= tol, msg)


# ---------------------------------------------------------------- instances

def random_qubo(rng, n: int) -> QuboProblem:
    return build_qubo(rng.normal(0.0, 1.0, (n, n)), rng.normal(0.0, 1.0, n))


def random_pubo(rng, n: int, dmax: int = 4) -> PuboProblem:
    items = []
    for _ in range(max(2, 2 * n)):
        k = int(rng.integers(1, min(dmax, n) + 1))
        idx = tuple(sorted(rng.choice(n, size=k, replace=False)))
        items.append((idx, float(rng.normal())))
    p = build_pubo(n, items)
    if not p.terms:  # exact cancellation is astronomically unlikely, but stay total
        p = build_pubo(n, [((0,), 1.0)])
    return p


def random_spin_hamiltonian(rng, n: int, degrees) -> SpinHamiltonian:
    """Random H built only from terms of the listed degrees (all present)."""
    terms = {}
    for d in degrees:
        count = max(1, n // 2)
        for _ in range(count):
            idx = tuple(sorted(rng.choice(n, size=d, replace=False)))
            terms[idx] = terms.get(idx, 0.0) + float(rng.normal())
    for d in degrees:
        if not any(len(k) == d and v != 0.0 for k, v in terms.items()):
            idx = tuple(range(d))
            terms[idx] = 1.0
    return SpinHamiltonian(n=n, terms={k: v for k, v in terms.items() if v != 0.0})


def random_spin_mixed(rng, n: int) -> SpinHamiltonian:
    """Spin form of a random QUBO or PUBO, whichever the coin says."""
    if rng.random() < 0.5:
        return qubo_to_spin(random_qubo(rng, n))
    return pubo_to_spin(random_pubo(rng, n))


def _random_spec(rng, nmax: int, pmax: int) -> qaoa.QaoaCircuitSpec:
    """Circuit of 1..pmax layers over random_spin_mixed on 2..nmax qubits."""
    h = random_spin_mixed(rng, int(rng.integers(2, nmax + 1)))
    return qaoa.build_circuit(h, layers=int(rng.integers(1, pmax + 1)))


# ------------------------------------------------------------------- gates

def _check_qubit(psi: sim.StateVector, q: int):
    if not 0 <= q < psi.n:
        raise ValueError(f"qubit index {q} out of range for n={psi.n}")


def apply_rx(psi: sim.StateVector, q: int, theta) -> None:
    """cos(t/2) I - i sin(t/2) sigma_x on qubit q.

    theta is a float, or an array of one angle per row of a (B, 2^n) block.
    """
    _check_qubit(psi, q)
    sim._rx(psi.amp, q, *sim._rx_coefficients(theta))


def apply_rz(psi: sim.StateVector, q: int, theta: float) -> None:
    """Phase e^{-i t/2} where bit q is 0, e^{+i t/2} where it is 1."""
    _check_qubit(psi, q)
    v = sim._bit_view(psi.amp, q)
    v[..., 0, :] *= np.exp(-0.5j * theta)
    v[..., 1, :] *= np.exp(0.5j * theta)


def apply_cnot(psi: sim.StateVector, control: int, target: int) -> None:
    """Flip the target bit on the half of the state where the control bit is 1."""
    _check_qubit(psi, control)
    _check_qubit(psi, target)
    if control == target:
        raise ValueError("control and target must differ")
    lo, hi = sorted((control, target))
    # z = block * 2^{hi+1} + b_hi * 2^hi + mid * 2^{lo+1} + b_lo * 2^lo + low
    v = psi.amp.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    a, b = (v[:, 1, :, 0], v[:, 1, :, 1]) if control == hi else (v[:, 0, :, 1], v[:, 1, :, 1])
    tmp = a.copy()
    a[:] = b
    b[:] = tmp


def _check_tuple(psi: sim.StateVector, qubits) -> tuple[int, ...]:
    qs = tuple(int(q) for q in qubits)
    if len(qs) < 1:
        raise ValueError("need at least one qubit")
    if list(qs) != sorted(set(qs)):
        raise ValueError(f"qubit tuple must be strictly increasing: {qs}")
    for q in qs:
        _check_qubit(psi, q)
    return qs


def apply_rzk_ladder(psi: sim.StateVector, qubits, theta: float) -> None:
    """Z-product rotation e^{-i(t/2) Z...Z} on the given qubits, built from gates.

    CNOTs gather the parity of the selected bits onto the highest one, an R_z
    applies the phase there, and the ladder is undone in reverse: the phase
    kernel on ising.parity_sign, to rounding.
    """
    qs = _check_tuple(psi, qubits)
    last = qs[-1]
    for q in qs[:-1]:
        apply_cnot(psi, q, last)
    apply_rz(psi, last, theta)
    for q in reversed(qs[:-1]):
        apply_cnot(psi, q, last)


def check_rzz_diagonal(trials: int = 100, tol: float = 1e-12, seed: int = 0) -> CheckResult:
    """The phase kernel on the ZZ sign, as a matrix, vs the rotation's diagonal form."""
    rng = np.random.default_rng(seed)
    worst, zz = 0.0, parity_sign(2, (0, 1))
    for _ in range(trials):
        theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        u = dense.operator_of(lambda psi: sim.apply_diagonal_phase(psi, zz, theta), 2)
        em, ep = np.exp(-0.5j * theta), np.exp(0.5j * theta)
        expected = np.diag([em, ep, ep, em])
        worst = max(worst, float(np.abs(u - expected).max()))
    return _result("rzz_diagonal_form", worst, tol)


def check_rzz_swap(trials: int = 100, tol: float = 1e-12, seed: int = 0) -> CheckResult:
    """The ZZ rotation on a random pair (i, j) commutes with the SWAP of i and j."""
    rng = np.random.default_rng(seed)
    worst, z = 0.0, np.arange(8)
    for _ in range(trials):
        theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        i, j = (int(q) for q in rng.choice(3, size=2, replace=False))
        zz = parity_sign(3, (i, j))
        u = dense.operator_of(lambda psi: sim.apply_diagonal_phase(psi, zz, theta), 3)
        d = (z >> i ^ z >> j) & 1
        s = z ^ (d << i | d << j)  # basis index z with bits i and j exchanged
        worst = max(worst, float(np.abs(u - u[np.ix_(s, s)]).max()))
    return _result("rzz_swap_invariance", worst, tol)


def check_rzz_cnot_composite(trials: int = 20, tol: float = 1e-12, seed: int = 0) -> CheckResult:
    """ZZ rotation equals CNOT, R_z on the target, CNOT."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        i, j = rng.choice(3, size=2, replace=False)

        def composite(psi, i=int(i), j=int(j), theta=theta):
            apply_cnot(psi, i, j)
            apply_rz(psi, j, theta)
            apply_cnot(psi, i, j)

        ua = dense.operator_of(composite, 3)
        zz = parity_sign(3, (int(i), int(j)))
        ub = dense.operator_of(lambda psi: sim.apply_diagonal_phase(psi, zz, theta), 3)
        worst = max(worst, float(np.abs(ua - ub).max()))
    return _result("rzz_cnot_composite", worst, tol)


def check_rzk_ladder_vs_dense(kmax: int = 5, trials: int = 20, tol: float = 1e-12, seed: int = 0) -> CheckResult:
    """CNOT-ladder construction vs dense exp(-i(theta/2) Z tensor power).

    The dense side is built from Kronecker products and a Hermitian matrix
    exponential, sharing nothing with the bit kernels.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in range(1, kmax + 1):
        zk = dense.kron_factors([dense.SIGMA_Z] * k)
        for _ in range(trials):
            theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
            u_ladder = dense.operator_of(
                lambda psi: apply_rzk_ladder(psi, tuple(range(k)), theta), k
            )
            u_dense = dense.expm_hermitian(zk, theta / 2.0)
            worst = max(worst, float(np.abs(u_ladder - u_dense).max()))
    # scattered qubits inside a larger register
    n = min(kmax + 2, dense.DENSE_CAP)
    for _ in range(trials):
        k = int(rng.integers(2, kmax + 1))
        qs = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        u_ladder = dense.operator_of(lambda psi: apply_rzk_ladder(psi, qs, theta), n)
        u_dense = dense.expm_hermitian(dense.z_product_matrix(qs, n), theta / 2.0)
        worst = max(worst, float(np.abs(u_ladder - u_dense).max()))
    return _result("rzk_ladder_vs_dense", worst, tol)


def check_single_qubit_gates(trials: int = 20, tol: float = 1e-12, seed: int = 0) -> CheckResult:
    """R_x and R_z kernels vs embedded 2x2 matrices on random states."""
    rng = np.random.default_rng(seed)
    n = 3
    worst = 0.0
    for _ in range(trials):
        theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        q = int(rng.integers(0, n))
        amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        amp /= np.linalg.norm(amp)
        for kernel, mat in ((apply_rx, dense.rx_matrix), (apply_rz, dense.rz_matrix)):
            psi = sim.StateVector(n, amp.copy())
            kernel(psi, q, theta)
            want = dense.embed_single(mat(theta), q, n) @ amp
            worst = max(worst, float(np.abs(psi.amp - want).max()))
    return _result("single_qubit_gates_vs_dense", worst, tol)


def check_cnot_projector_form(tol: float = 1e-12) -> CheckResult:
    """CNOT kernel vs |0><0| (x) I + |1><1| (x) X built densely."""
    p0 = np.diag([1.0, 0.0]).astype(np.complex128)
    p1 = np.diag([0.0, 1.0]).astype(np.complex128)
    worst = 0.0
    n = 3
    for control in range(n):
        for target in range(n):
            if control == target:
                continue
            want = (
                dense.embed_single(p0, control, n)
                + dense.embed_single(p1, control, n) @ dense.embed_single(dense.SIGMA_X, target, n)
            )
            got = dense.operator_of(lambda psi: apply_cnot(psi, control, target), n)
            worst = max(worst, float(np.abs(got - want).max()))
    return _result("cnot_projector_form", worst, tol)


def check_gate_inverses(trials: int = 20, tol: float = 1e-12, seed: int = 0) -> CheckResult:
    """Running any rotation at -theta undoes the rotation at +theta."""
    rng = np.random.default_rng(seed)
    n = 4
    worst = 0.0
    for _ in range(trials):
        theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        amp /= np.linalg.norm(amp)
        psi = sim.StateVector(n, amp.copy())
        apply_rx(psi, 1, theta)
        apply_rx(psi, 1, -theta)
        apply_rz(psi, 2, theta)
        apply_rz(psi, 2, -theta)
        for sign in (parity_sign(n, (0, 3)), parity_sign(n, (0, 1, 3))):
            sim.apply_diagonal_phase(psi, sign, theta)
            sim.apply_diagonal_phase(psi, sign, -theta)
        apply_rzk_ladder(psi, (1, 2, 3), theta)
        apply_rzk_ladder(psi, (1, 2, 3), -theta)
        worst = max(worst, float(np.abs(psi.amp - amp).max()), psi.norm_error())
    return _result("gate_inverses", worst, tol)


def check_mixer_ground_state(tol: float = 1e-12) -> CheckResult:
    """-sum sigma_x has ground energy -n with |+...+> as ground state."""
    worst = 0.0
    for n in (2, 3, 4):
        h = dense.mixer_matrix(n)
        evals = np.linalg.eigvalsh(h)
        worst = max(worst, abs(float(evals[0]) + n))
        plus = sim.init_plus(n).amp
        worst = max(worst, float(np.abs(h @ plus + n * plus).max()))
        worst = max(worst, abs(float(np.real(plus.conj() @ h @ plus)) + n))
    return _result("mixer_ground_state", worst, tol)


# ---------------------------------------------------------------- symmetry

def _random_params(rng, p: int) -> qaoa.QaoaParams:
    return qaoa.QaoaParams(
        beta=rng.uniform(-math.pi, math.pi, p), gamma=rng.uniform(-math.pi, math.pi, p)
    )


def check_point_symmetry(
    instances: int = 50, nmax: int = 6, pmax: int = 3, points: int = 20,
    tol: float = 1e-10, seed: int = 0,
) -> CheckResult:
    """Energy is unchanged under flipping the sign of all angles."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        spec = _random_spec(rng, nmax, pmax)
        angles = np.array([_random_params(rng, spec.layers).as_vector() for _ in range(points)])
        e = qaoa.energies(spec, np.concatenate([angles, -angles]))
        worst = max(worst, float(np.abs(e[:points] - e[points:]).max()))
    return _result("point_symmetry", worst, tol)


def _beta_shift_deviation(rng, spec: qaoa.QaoaCircuitSpec, points: int, shift: float) -> float:
    """Largest |E(beta_i + shift) - E| over random points and every layer i."""
    p = spec.layers
    rows = []
    for _ in range(points):
        angles = _random_params(rng, p).as_vector()
        rows.append(angles)
        for i in range(p):
            shifted = angles.copy()
            shifted[i] += shift
            rows.append(shifted)
    e = qaoa.energies(spec, rows).reshape(points, p + 1)
    return float(np.abs(e[:, 1:] - e[:, :1]).max())


def check_beta_periodicity_even(
    instances: int = 50, nmax: int = 6, pmax: int = 3, points: int = 20,
    tol: float = 1e-10, seed: int = 0,
) -> CheckResult:
    """With only even-degree terms, shifting any one beta by pi is invisible."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        n = int(rng.integers(2, nmax + 1))
        degrees = [2] if n < 4 else ([2, 4] if rng.random() < 0.5 else [2])
        h = random_spin_hamiltonian(rng, n, degrees)
        p = int(rng.integers(1, pmax + 1))
        spec = qaoa.build_circuit(h, layers=p)
        worst = max(worst, _beta_shift_deviation(rng, spec, points, math.pi))
    return _result("beta_pi_periodicity_even", worst, tol)


def check_beta_shift_detects_odd(
    instances: int = 50, nmax: int = 6, search_points: int = 100,
    threshold: float = 1e-3, min_found: int = 45, seed: int = 0,
) -> CheckResult:
    """With an odd-degree term, a pi shift in beta is observable.

    For each instance a random search must find a parameter point where the
    shifted energy differs by more than the threshold; the even-degree
    hypothesis of the periodicity claim is therefore necessary.
    """
    rng = np.random.default_rng(seed)
    found = 0
    for _ in range(instances):
        n = int(rng.integers(2, nmax + 1))
        degrees = [1, 2] if n < 3 or rng.random() < 0.5 else [2, 3]
        spec = qaoa.build_circuit(random_spin_hamiltonian(rng, n, degrees))
        for _ in range(search_points):
            params = _random_params(rng, 1)
            shifted = qaoa.QaoaParams(params.beta + math.pi, params.gamma)
            if abs(qaoa.energy(spec, shifted) - qaoa.energy(spec, params)) > threshold:
                found += 1
                break
    return CheckResult(
        "beta_shift_detects_odd_terms",
        found >= min_found,
        f"violation found for {found}/{instances} instances (need >= {min_found})",
    )


def check_beta_2pi_periodicity(
    instances: int = 20, nmax: int = 6, points: int = 10, tol: float = 1e-10, seed: int = 0
) -> CheckResult:
    """Shifting any beta by 2 pi never changes the energy."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        spec = _random_spec(rng, nmax, 3)
        worst = max(worst, _beta_shift_deviation(rng, spec, points, 2 * math.pi))
    return _result("beta_2pi_periodicity", worst, tol)


def _nodes_in(axis: np.ndarray, box: tuple[float, float]) -> np.ndarray:
    """Mask of the grid nodes inside [lo, hi], with 1e-12 slack at both ends."""
    return (axis >= box[0] - 1e-12) & (axis <= box[1] + 1e-12)


def check_restricted_box_holds_minimum(
    instances: int = 6, resolution: int = 33, tol: float = 1e-9, seed: int = 0
) -> CheckResult:
    """On a shared p=1 grid, the restricted box attains the full-grid minimum.

    The grid spans [-pi, pi]^2 with symmetric nodes so the restricted boxes
    ([0,pi] x [0,pi] or [0,pi] x [-pi,pi]) are exact node subsets.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        n = int(rng.integers(2, 5))
        spec = qaoa.build_circuit(random_spin_mixed(rng, n))
        grid = qaoa.landscape_scan(spec, resolution)
        domain = qaoa.restricted_domain(spec)
        b_in = _nodes_in(grid.beta_axis, domain.beta_range)
        g_in = _nodes_in(grid.gamma_axis, domain.gamma_range)
        sub = grid.values[np.ix_(b_in, g_in)]
        worst = max(worst, float(sub.min() - grid.values.min()))
    return _result("restricted_box_holds_minimum", worst, tol)


def check_beta_spectrum(instances: int = 20, points: int = 32, tol: float = 1e-12, seed: int = 0) -> CheckResult:
    """At p = 1 and fixed gamma, E(beta) has no harmonic above the largest term degree D.

    An FFT of E at points equispaced beta over [0, 2 pi), two random gammas
    per instance on 3..7 qubits, also finds no odd harmonic when every degree
    is even: the premise of landscape_scan's reconstruction and a second
    route to the beta pi-periodicity of even instances.
    """
    rng = np.random.default_rng(seed)
    worst, even = 0.0, 0
    betas = 2 * math.pi * np.arange(points) / points
    for i in range(instances):
        n = int(rng.integers(3, 8))
        degrees = [d for d in ((2, 4) if i % 2 == 0 else (1, 2, 3, 4)) if d <= n and rng.random() < 0.7] or [2]
        spec = qaoa.build_circuit(random_spin_hamiltonian(rng, n, degrees))
        harmonics = np.abs(np.fft.rfft(direct_grid(spec, betas, rng.uniform(-math.pi, math.pi, 2)), axis=0)) / points
        silent = np.arange(len(harmonics)) > max(map(len, spec.hamiltonian.terms))
        if spec.hamiltonian.all_even_degrees():
            even += 1
            silent |= np.arange(len(harmonics)) % 2 == 1
        worst = max(worst, float(harmonics[silent].max()))
    return _result("beta_spectrum", worst, tol, f"{even}/{instances} instances all-even")


# ----------------------------------------------------------------- trotter

def check_trotter_convergence(
    hams: int = 5, ps=(4, 8, 16, 32, 64), ratio_window=(1.5, 2.5), ratio_from: int = 16,
    steps_exact: int = 4096, seed: int = 0,
) -> CheckResult:
    """Split-step error strictly decreases in p with a first-order ratio."""
    rng = np.random.default_rng(seed)
    ok = True
    details = []
    for _ in range(hams):
        h = qubo_to_spin(random_qubo(rng, 3))
        errs = dense.trotter_compare(h, ps, steps_exact=steps_exact)
        decreasing = all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
        ratios = [errs[i] / errs[i + 1] for i in range(len(ps) - 1) if ps[i] >= ratio_from]
        in_window = all(ratio_window[0] <= r <= ratio_window[1] for r in ratios)
        ok = ok and decreasing and in_window
        details.append(
            "errs=[" + ", ".join(f"{e:.2e}" for e in errs) + "], ratios=["
            + ", ".join(f"{r:.2f}" for r in ratios) + "]"
        )
    return CheckResult("trotter_convergence", ok, "; ".join(details))


def check_split_exact_when_commuting(tol: float = 1e-12, seed: int = 0) -> CheckResult:
    """One split slice is exact when the two generators commute.

    Two diagonal Hamiltonians commute, so e^{-i dt (A+B)} must equal
    e^{-i dt A} e^{-i dt B} to rounding for any slice length.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(5):
        a = np.diag(rng.normal(size=8)).astype(np.complex128)
        b = np.diag(rng.normal(size=8)).astype(np.complex128)
        for dt in (1.0, 0.25, 0.01):
            lhs = dense.expm_hermitian(a + b, dt)
            rhs = dense.expm_hermitian(a, dt) @ dense.expm_hermitian(b, dt)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    return _result("split_exact_when_commuting", worst, tol)


# ------------------------------------------------------------------ oracle

def _roundtrip_worst(problem, h: SpinHamiltonian) -> float:
    """Max |binary cost - (spin diagonal + constant)| over all assignments.

    Basis state z encodes the assignment with complemented bits, so the
    cost table in assignment order is diag[mask ^ m] + constant.
    """
    n = problem.n
    table = brute_force_solve(problem, full_table=True).table
    diag = diagonalize(h)
    mask = (1 << n) - 1
    spin_costs = diag[np.arange(1 << n) ^ mask] + h.constant
    return float(np.abs(table - spin_costs).max())


def check_qubo_roundtrip(instances: int = 200, nmax: int = 8, tol: float = 1e-9, seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        n = int(rng.integers(1, nmax + 1))
        p = random_qubo(rng, n)
        worst = max(worst, _roundtrip_worst(p, qubo_to_spin(p)))
    return _result("qubo_spin_roundtrip", worst, tol)


def pubo_to_spin_closed_form(problem: PuboProblem) -> SpinHamiltonian:
    """Closed-form spin coefficients from the symmetric-tensor view.

    The oracle for ising.pubo_to_spin, which expands term by term.  A
    monomial coefficient q on a degree-m index set spreads as q / m! over
    the m! orderings of a full symmetric tensor.  The spin coefficient of an
    ordered tuple of degree k collects its own tensor entry scaled 2^-k plus
    binom(k+h, k)-weighted sums over all degree-(k+h) extensions scaled
    2^-(k+h); multiplying by the k! orderings of the target tuple gives the
    per-set coefficient.
    """
    mono = problem.terms
    d = problem.degree
    targets: set[tuple[int, ...]] = set()
    for idx in mono:
        for r in range(len(idx) + 1):
            targets.update(combinations(idx, r))
    out: dict[tuple[int, ...], float] = {}
    constant = problem.offset
    for T in sorted(targets, key=lambda t: (len(t), t)):
        k = len(T)
        f = (2.0 ** -k) * mono.get(T, 0.0) / factorial(k)
        for h in range(1, d - k + 1):
            s = 0.0
            for M, q in mono.items():
                if len(M) == k + h and set(T) <= set(M):
                    # h! orderings of the extension indices, each q / (k+h)!
                    s += factorial(h) * q / factorial(k + h)
            f += (2.0 ** -(k + h)) * comb(k + h, k) * s
        a = factorial(k) * f
        if k == 0:
            constant += a
        else:
            out[T] = a
    return SpinHamiltonian(n=problem.n, terms=_canon(out), constant=float(constant))


def check_pubo_roundtrip(instances: int = 100, nmax: int = 8, dmax: int = 4, tol: float = 1e-9, seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        n = int(rng.integers(2, nmax + 1))
        p = random_pubo(rng, n, dmax=dmax)
        worst = max(worst, _roundtrip_worst(p, pubo_to_spin(p)))
        worst = max(worst, _roundtrip_worst(p, pubo_to_spin_closed_form(p)))
    return _result("pubo_spin_roundtrip", worst, tol)


def check_pubo_conversion_paths(instances: int = 50, nmax: int = 8, tol: float = 1e-12, seed: int = 0) -> CheckResult:
    """Expansion route vs closed-form route produce the same Hamiltonian."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        p = random_pubo(rng, int(rng.integers(2, nmax + 1)))
        ha = pubo_to_spin(p)
        hb = pubo_to_spin_closed_form(p)
        keys = set(ha.terms) | set(hb.terms)
        for k in keys:
            worst = max(worst, abs(ha.terms.get(k, 0.0) - hb.terms.get(k, 0.0)))
        worst = max(worst, abs(ha.constant - hb.constant))
    return _result("pubo_conversion_paths", worst, tol, "keys compared on union")


def check_diagonal_matches_brute(instances: int = 20, nmax: int = 8, tol: float = 1e-9, seed: int = 0) -> CheckResult:
    """Minimum of the spin diagonal equals the enumerated optimum cost."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        n = int(rng.integers(2, nmax + 1))
        p = random_qubo(rng, n)
        res = brute_force_solve(p)
        h = qubo_to_spin(p)
        diag = diagonalize(h)
        worst = max(worst, abs(float(diag.min()) + h.constant - res.best_cost))
    return _result("diagonal_min_matches_brute", worst, tol)


def check_penalties_exact() -> CheckResult:
    """Penalties with exact encodings vanish precisely on feasible points."""
    failures = []

    def base(n):
        return build_qubo(np.zeros((n, n)), np.zeros(n))

    # pairwise and set penalties: enumerate every assignment
    cases = [
        (ConstraintSpec(ConstraintKind.AT_MOST_ONE_PAIR, (0, 1)), 3,
         lambda bits: bits[0] + bits[1] <= 1),
        (ConstraintSpec(ConstraintKind.AT_LEAST_ONE_PAIR, (0, 2)), 3,
         lambda bits: bits[0] + bits[2] >= 1),
        (ConstraintSpec(ConstraintKind.EQUAL_PAIR, (1, 2)), 3,
         lambda bits: bits[1] == bits[2]),
        (ConstraintSpec(ConstraintKind.AT_MOST_ONE_SET, (0, 1, 2, 3)), 4,
         lambda bits: sum(bits[:4]) <= 1),
        (ConstraintSpec(ConstraintKind.EXACT_SUM, (0, 1, 2), bound=2), 4,
         lambda bits: bits[0] + bits[1] + bits[2] == 2),
    ]
    for spec, n, feasible in cases:
        pen = apply_penalty(base(n), spec)
        for m in range(1 << n):
            bits = tuple((m >> i) & 1 for i in range(n))
            v = evaluate_qubo(pen, bits)
            if feasible(bits) != (abs(v) < 1e-12) or v < -1e-12:
                failures.append(f"{spec.kind.value} at {bits}: {v}")

    # slack inequality: zero attainable over slacks iff the constraint holds
    weights, bound = (3.0, 1.0, 2.0), 4
    spec = ConstraintSpec(ConstraintKind.SLACK_INEQUALITY, (0, 1, 2), weights=weights, bound=bound)
    pen = apply_penalty(base(3), spec)
    m_slack = pen.n - 3
    for m in range(1 << 3):
        bits = tuple((m >> i) & 1 for i in range(3))
        feasible = sum(w * b for w, b in zip(weights, bits)) <= bound
        best = min(
            evaluate_qubo(pen, bits + tuple((s >> j) & 1 for j in range(m_slack)))
            for s in range(1 << m_slack)
        )
        if feasible != (abs(best) < 1e-12) or best < -1e-12:
            failures.append(f"slack_inequality at {bits}: min over slacks {best}")

    return CheckResult(
        "penalties_exact_iff_feasible",
        not failures,
        "all exact penalty kinds vanish exactly on feasible points" if not failures else "; ".join(failures[:4]),
    )


def check_unbalanced_inexact() -> CheckResult:
    """The slack-free inequality penalty is biased: a documented counterexample.

    With weights (1,), bound 1, p1=p2=1, the empty assignment satisfies the
    constraint but the penalty evaluates to p1(0-1) + p2(0-1)^2 = 0 only if
    p1 == p2; with the defaults it is nonzero, so the encoding is inexact.
    """
    spec = ConstraintSpec(
        ConstraintKind.UNBALANCED_INEQUALITY, (0,), weights=(1.0,), bound=1.0, p1=0.96, p2=0.0371
    )
    pen = apply_penalty(build_qubo(np.zeros((1, 1)), np.zeros(1)), spec)
    v = evaluate_qubo(pen, (0,))
    expected = 0.96 * (0.0 - 1.0) + 0.0371 * (0.0 - 1.0) ** 2
    detail = f"feasible x=(0,) has penalty {v:.4f} != 0 (predicted {expected:.4f})"
    return CheckResult("unbalanced_penalty_inexact", abs(v - expected) < 1e-12 and v != 0.0, detail)


def gate_decomposed_run(spec: qaoa.QaoaCircuitSpec, params: qaoa.QaoaParams) -> sim.StateVector:
    """Gate-level reference for qaoa.run, built from simulator kernels alone.

    From |+...+>, every layer applies U_f(gamma_k) as one CNOT-ladder
    Z-product rotation by gamma_k * coef per term of spec.hamiltonian, then
    U_i(beta_k) as R_x(beta_k) on every qubit.  spec.energies is never read.
    """
    psi = sim.init_plus(spec.n)
    for beta, gamma in zip(params.beta, params.gamma):
        for idx, coef in spec.hamiltonian.terms.items():
            apply_rzk_ladder(psi, idx, float(gamma) * coef)
        for q in range(spec.n):
            apply_rx(psi, q, float(beta))
    return psi


def check_fast_gate_agreement(instances: int = 50, n: int = 5, p: int = 3, tol: float = 1e-10, seed: int = 0) -> CheckResult:
    """qaoa.run vs gate_decomposed_run: same state up to global phase."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        h = random_spin_mixed(rng, n)
        spec = qaoa.build_circuit(h, layers=p)
        params = _random_params(rng, p)
        a = qaoa.run(spec, params).amp
        b = gate_decomposed_run(spec, params).amp
        overlap = abs(np.vdot(a, b))
        worst = max(worst, 1.0 - overlap)
    return _result("fast_vs_gate_overlap_deficit", worst, tol)


def check_tiled_mixer(n: int = 16, trials: int = 3, seed: int = 0) -> CheckResult:
    """apply_mixer, tiled past sim.TILE_QUBITS, vs an apply_rx loop over qubits: bit for bit.

    Every other trial runs the layer apply_diagonal_phase folds the mixer
    into, against np.exp's phase (which the cos/sin phase equals bit for
    bit) and then the apply_rx loop.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k, (beta, gamma) in enumerate(rng.uniform(-math.pi, math.pi, (trials, 2)).tolist()):
        a = sim.StateVector(n, rng.normal(size=2 << n).view(np.complex128))
        b = sim.StateVector(n, a.amp.copy())
        if k % 2:
            energies = rng.normal(size=1 << n)
            sim.apply_diagonal_phase(a, energies, gamma, beta)
            b.amp *= np.exp(-0.5j * gamma * energies)
        else:
            sim.apply_mixer(a, beta)
        for q in range(n):
            apply_rx(b, q, beta)
        worst = max(worst, float(np.abs(a.amp - b.amp).max()))
    return _result("tiled_mixer_vs_rx_loop", worst, 0.0)


def _integer_instances(rng, n: int) -> list[qaoa.QaoaCircuitSpec]:
    """Unweighted max-cut (scaled), integer-weighted max-cut and integer degree-3 PUBO (unscaled).

    2n terms of |coef| <= 3 keep 2 span + 1 <= 12n + 1 levels, few enough
    for a table from n = 8 up whatever the draw.
    """
    pairs = list(combinations(range(n), 2))
    edges = [pairs[i] for i in rng.choice(len(pairs), size=2 * n, replace=False)]
    triples = [tuple(sorted(rng.choice(n, size=int(rng.integers(1, 4)), replace=False).tolist())) for _ in range(2 * n)]
    weighted = SpinHamiltonian(n, {e: float(rng.integers(1, 4)) for e in edges})
    pubo = SpinHamiltonian(n, {t: float(rng.choice([-3, -2, -1, 1, 2, 3])) for t in triples})
    return [qaoa.build_circuit(qubo_to_spin(build_maxcut(n, edges))),
            qaoa.build_circuit(weighted, scaled=False), qaoa.build_circuit(pubo, scaled=False)]


def check_level_table(nmax: int = 12, rows: int = 3, seed: int = 0) -> CheckResult:
    """U_f through build_circuit's level table vs apply_diagonal_phase: bit for bit.

    On integer-coefficient instances at 8 qubits (the fewest whose draws
    always build a table) and at nmax, levels[index] equals the diagonal,
    and apply_level_phase equals the direct phase on a random state and on
    a block with one gamma per row; a non-integer instance builds no table.
    """
    rng = np.random.default_rng(seed)
    worst, bad = 0.0, []
    for n in (8, nmax):
        for spec in _integer_instances(rng, n):
            if spec.level_table is None:
                bad.append(f"no table at n={n}")
                continue
            levels, index = spec.level_table
            worst = max(worst, float(np.abs(levels[index] - spec.energies).max()))
            for gamma in (float(rng.uniform(-2 * math.pi, 2 * math.pi)), rng.uniform(-2 * math.pi, 2 * math.pi, rows)):
                shape = (1 << n,) if isinstance(gamma, float) else (rows, 1 << n)
                a = sim.StateVector(n, rng.normal(size=shape) + 1j * rng.normal(size=shape))
                b = sim.StateVector(n, a.amp.copy())
                sim.apply_diagonal_phase(a, spec.energies, gamma)
                sim.apply_level_phase(b, levels, index, gamma)
                worst = max(worst, float(np.abs(a.amp - b.amp).max()))
    if qaoa.build_circuit(random_spin_mixed(rng, nmax)).level_table is not None:
        bad.append("non-integer instance built a table")
    result = _result("level_table_vs_direct_phase", worst, 0.0, "; ".join(bad))
    result.passed = result.passed and not bad
    return result


def direct_grid(spec: qaoa.QaoaCircuitSpec, beta_axis, gamma_axis) -> np.ndarray:
    """energies() at every point of a one-layer grid, gamma-major, as (beta, gamma) values: landscape_scan's oracle."""
    betas, gammas = np.meshgrid(beta_axis, gamma_axis)
    return qaoa.energies(spec, np.column_stack([betas.ravel(), gammas.ravel()])).reshape(gammas.shape).T


def check_scan_vs_direct_grid(n: int = 8, tol: float = 1e-10, seed: int = 0) -> CheckResult:
    """landscape_scan's beta reconstruction vs direct_grid at resolution 2D + 3, random boxes.

    On n qubits: degrees 1 and 3 together, a PUBO with a degree-4 term, and
    an unweighted max-cut, whose U_f runs through the level table.
    """
    rng = np.random.default_rng(seed)
    edges = list(combinations(range(n), 2))
    hams = [random_spin_hamiltonian(rng, n, [1, 3]),
            pubo_to_spin(build_pubo(n, [*random_pubo(rng, n).terms.items(), ((0, 1, 2, 3), 1.0)])),
            qubo_to_spin(build_maxcut(n, [edges[i] for i in rng.choice(len(edges), size=2 * n, replace=False)]))]
    worst = 0.0
    for h in hams:
        spec = qaoa.build_circuit(h)
        resolution = 2 * max(map(len, h.terms)) + 3
        box = np.sort(rng.uniform(-4.0, 4.0, (2, 2)))
        grid = qaoa.landscape_scan(spec, resolution, beta_range=tuple(box[0]), gamma_range=tuple(box[1]))
        worst = max(worst, float(np.abs(grid.values - direct_grid(spec, grid.beta_axis, grid.gamma_axis)).max()))
    return _result("scan_vs_direct_grid", worst, tol)


def check_expectation_vs_dense(trials: int = 20, nmax: int = 5, tol: float = 1e-10, seed: int = 0) -> CheckResult:
    """expectation_diagonal vs dense <psi|H|psi> on random states."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, nmax + 1))
        h = random_spin_mixed(rng, n)
        amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        amp /= np.linalg.norm(amp)
        psi = sim.StateVector(n, amp)
        fast = sim.expectation_diagonal(psi, diagonalize(h))
        ref = float(np.real(amp.conj() @ dense.hamiltonian_matrix(h) @ amp))
        worst = max(worst, abs(fast - ref))
    return _result("expectation_vs_dense", worst, tol)


def shift_rule_gradient(spec: qaoa.QaoaCircuitSpec, params: qaoa.QaoaParams) -> np.ndarray:
    """Exact parameter-shift gradient of qaoa.energy, from simulator kernels alone.

    U_i(beta_k) is a product of commuting R_x(beta_k) and U_f(gamma_k) a
    product of commuting Z-product rotations by gamma_k * coef, each gate
    generated by a +/-1-spectrum operator.  Shifting one gate angle by
    +/- pi/2 therefore equals running the plain circuit with one more
    R_x(+/- pi/2) on qubit q, or one Z-product rotation of +/- pi/2 on a
    term, inserted between U_f(gamma_k) and U_i(beta_k): each inserted gate
    commutes with its own half-layer, so that one point is exact for both.
    d/d(angle) is half the difference of the two energies; summing over the
    gates a parameter feeds (d(angle)/d(gamma_k) = coef) gives the gradient
    from 2 p (n + T) circuit runs.  The runs of layer k share the prefix up
    to U_f(gamma_k), evolved once; they start from copies of it, stacked in
    blocks of at most qaoa.BLOCK_BYTES (at least one state), and the rest of
    the circuit runs once per block, so memory stays O(2^n).  Each term's
    parity_sign is built once per layer for both of its runs.
    """
    if params.p != spec.layers:
        raise ValueError(f"params have {params.p} layers, circuit has {spec.layers}")
    p, n = params.p, spec.n
    betas, gammas = params.beta.tolist(), params.gamma.tolist()
    targets = list(range(n)) + list(spec.hamiltonian.terms)
    runs = [(target, angle) for target in targets for angle in (math.pi / 2.0, -math.pi / 2.0)]
    rows = max(1, qaoa.BLOCK_BYTES // (16 << n))
    grad = np.zeros(2 * p)
    prefix = sim.init_plus(n)
    for k in range(p):
        sim.apply_diagonal_phase(prefix, spec.energies, gammas[k])
        e = []
        for start in range(0, len(runs), rows):
            chunk = runs[start:start + rows]
            block = sim.StateVector(n, np.tile(prefix.amp, (len(chunk), 1)))
            for amp, (target, angle) in zip(block.amp, chunk):
                psi = sim.StateVector(n, amp)
                if isinstance(target, int):
                    apply_rx(psi, target, angle)
                else:  # a term's + run builds its sign, the - run right after reuses it
                    sign = parity_sign(n, target) if angle > 0.0 else sign
                    sim.apply_diagonal_phase(psi, sign, angle)
            for j in range(k, p):
                if j > k:
                    sim.apply_diagonal_phase(block, spec.energies, gammas[j])
                for q in range(n):
                    apply_rx(block, q, betas[j])
            e.extend(sim.expectation_diagonal(block, spec.energies).tolist())
        diffs = [0.5 * up - 0.5 * dn for up, dn in zip(e[0::2], e[1::2])]
        grad[k] = sum(diffs[:n])
        grad[p + k] = sum(coef * d for coef, d in zip(spec.hamiltonian.terms.values(), diffs[n:]))
        for q in range(n):
            apply_rx(prefix, q, betas[k])
    return grad


# Central-difference step of fd_gradient.
FD_STEP = 1e-5


def fd_gradient(spec: qaoa.QaoaCircuitSpec, params: qaoa.QaoaParams) -> np.ndarray:
    """Central finite differences of qaoa.energy with step FD_STEP.

    Its 4p points, [+step, -step] per coordinate, are one qaoa.energies call,
    which raises ValueError when params and spec disagree on the depth.
    """
    base = params.as_vector()
    steps = FD_STEP * np.eye(base.size)
    e = qaoa.energies(spec, np.stack([base + steps, base - steps], axis=1).reshape(-1, base.size))
    return (e[0::2] - e[1::2]) / (2.0 * FD_STEP)


def check_gradient_methods_agree(
    instances: int = 30, nmax: int = 5, pmax: int = 3, points: int = 5,
    rtol: float = 1e-6, seed: int = 0,
) -> CheckResult:
    """shift_rule_gradient vs fd_gradient's central differences.

    Relative error is the max component difference over the max finite-
    difference component magnitude (floored to dodge division by zero).
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        spec = _random_spec(rng, nmax, pmax)
        for _ in range(points):
            params = _random_params(rng, spec.layers)
            g_fd = fd_gradient(spec, params)
            g_sh = shift_rule_gradient(spec, params)
            denom = max(float(np.abs(g_fd).max()), 1e-8)
            worst = max(worst, float(np.abs(g_sh - g_fd).max()) / denom)
    return _result("gradient_shift_vs_fd", worst, rtol)


def check_adjoint_gradient(
    instances: int = 30, nmax: int = 5, pmax: int = 3, atol: float = 1e-10, rtol: float = 1e-6, seed: int = 0,
) -> CheckResult:
    """The adjoint gradient of qaoa.energy_and_gradient vs both gradient oracles.

    Against shift_rule_gradient the max component difference stays within
    atol; against fd_gradient, which carries an O(FD_STEP^2) step error,
    within rtol relative to the largest fd component.
    """
    rng = np.random.default_rng(seed)
    worst_sh = worst_fd = 0.0
    for _ in range(instances):
        spec = _random_spec(rng, nmax, pmax)
        params = _random_params(rng, spec.layers)
        g, g_fd = qaoa.energy_and_gradient(spec, params.as_vector()[None])[1][0], fd_gradient(spec, params)
        worst_sh = max(worst_sh, float(np.abs(g - shift_rule_gradient(spec, params)).max()))
        worst_fd = max(worst_fd, float(np.abs(g - g_fd).max()) / max(float(np.abs(g_fd).max()), 1e-8))
    detail = f"max deviation {worst_sh:.3e} (tolerance {atol:.1e}); vs fd {worst_fd:.3e} relative (tolerance {rtol:.1e})"
    return CheckResult("gradient_adjoint_vs_oracles", worst_sh <= atol and worst_fd <= rtol, detail)


# ------------------------------------------------------------------ suites

def suite_gates(seed: int = 0) -> list[CheckResult]:
    return [
        check_rzz_diagonal(seed=seed),
        check_rzz_swap(seed=seed),
        check_rzz_cnot_composite(seed=seed),
        check_rzk_ladder_vs_dense(seed=seed),
        check_single_qubit_gates(seed=seed),
        check_cnot_projector_form(),
        check_gate_inverses(seed=seed),
        check_mixer_ground_state(),
    ]


def suite_symmetry(seed: int = 0) -> list[CheckResult]:
    return [
        check_point_symmetry(seed=seed),
        check_beta_periodicity_even(seed=seed),
        check_beta_shift_detects_odd(seed=seed),
        check_beta_2pi_periodicity(seed=seed),
        check_restricted_box_holds_minimum(seed=seed),
        check_beta_spectrum(seed=seed),
    ]


def suite_trotter(seed: int = 0) -> list[CheckResult]:
    return [
        check_trotter_convergence(seed=seed),
        check_split_exact_when_commuting(seed=seed),
    ]


def suite_oracle(seed: int = 0) -> list[CheckResult]:
    return [
        check_qubo_roundtrip(seed=seed),
        check_pubo_roundtrip(seed=seed),
        check_pubo_conversion_paths(seed=seed),
        check_diagonal_matches_brute(seed=seed),
        check_penalties_exact(),
        check_unbalanced_inexact(),
        check_fast_gate_agreement(seed=seed),
        check_tiled_mixer(seed=seed),
        check_level_table(seed=seed),
        check_scan_vs_direct_grid(seed=seed),
        check_expectation_vs_dense(seed=seed),
        check_gradient_methods_agree(seed=seed),
        check_adjoint_gradient(seed=seed),
    ]


SUITES = {
    "gates": suite_gates,
    "symmetry": suite_symmetry,
    "trotter": suite_trotter,
    "oracle": suite_oracle,
}


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](seed=whole_number(seed, "seed", 0))
