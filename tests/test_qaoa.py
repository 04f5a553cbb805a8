import math
import tracemalloc

import numpy as np
import pytest

from qaoaforge import qaoa, verify
from qaoaforge import simulator as sim
from qaoaforge.ising import SpinHamiltonian, parity_sign, qubo_to_spin
from qaoaforge.model import build_maxcut, build_qubo


def single_z():
    return SpinHamiltonian(1, {(0,): 1.0})


def random_hamiltonian(rng, n):
    return qubo_to_spin(build_qubo(rng.normal(size=(n, n)), rng.normal(size=n)))


def test_params_shapes():
    params = qaoa.QaoaParams(beta=[0.1, 0.2], gamma=[0.3, 0.4])
    assert params.p == 2
    assert np.allclose(params.as_vector(), [0.1, 0.2, 0.3, 0.4])
    back = qaoa.QaoaParams.from_vector(params.as_vector())
    assert np.allclose(back.beta, params.beta)
    with pytest.raises(ValueError):
        qaoa.QaoaParams(beta=[0.1], gamma=[0.2, 0.3])
    with pytest.raises(ValueError):
        qaoa.QaoaParams.from_vector([1.0, 2.0, 3.0])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="parameters must be finite"):
            qaoa.QaoaParams(beta=[0.1], gamma=[bad])


def test_build_circuit_scaling():
    h = SpinHamiltonian(2, {(0,): -4.0, (0, 1): 2.0}, constant=1.0)
    spec = qaoa.build_circuit(h)
    assert spec.k_scale == 4.0
    assert spec.hamiltonian.terms == {(0,): -1.0, (0, 1): 0.5}
    raw = qaoa.build_circuit(h, scaled=False)
    assert raw.k_scale == 1.0
    with pytest.raises(ValueError):
        qaoa.build_circuit(SpinHamiltonian(2, {}))
    with pytest.raises(ValueError):
        qaoa.build_circuit(h, layers=0)


def test_single_qubit_energy_oracle():
    # H = sigma_z on one qubit, p=1: E(beta, gamma) = sin(beta) sin(gamma)
    spec = qaoa.build_circuit(single_z())
    for b in np.linspace(-3.0, 3.0, 9):
        for g in np.linspace(-3.0, 3.0, 9):
            e = qaoa.energy(spec, qaoa.QaoaParams([b], [g]))
            assert abs(e - math.sin(b) * math.sin(g)) < 1e-12


def test_layer_order_changes_energy():
    # phases before mixing give sin.sin
    forward = qaoa.build_circuit(single_z())
    params = qaoa.QaoaParams([math.pi / 2], [math.pi / 2])
    assert abs(qaoa.energy(forward, params) - 1.0) < 1e-12
    # a mixer acting on |+> adds only a global phase, so layer 1 with
    # gamma_1 = 0 is invisible: mixing first would be one layer fewer
    h = random_hamiltonian(np.random.default_rng(40), 3)
    two = qaoa.build_circuit(h, layers=2)
    one = qaoa.build_circuit(h, layers=1)
    e2 = qaoa.energy(two, qaoa.QaoaParams([0.9, -0.4], [0.0, 1.3]))
    e1 = qaoa.energy(one, qaoa.QaoaParams([-0.4], [1.3]))
    assert abs(e2 - e1) < 1e-12


def test_run_matches_manual_layering():
    rng = np.random.default_rng(41)
    h = random_hamiltonian(rng, 3)
    spec = qaoa.build_circuit(h, layers=2)
    params = qaoa.QaoaParams(beta=[0.3, -0.8], gamma=[1.1, 0.4])

    psi = sim.init_plus(3)
    for k in range(2):
        sim.apply_diagonal_phase(psi, spec.energies, float(params.gamma[k]))
        for q in range(3):
            sim.apply_rx(psi, q, float(params.beta[k]))
    got = qaoa.run(spec, params)
    assert np.abs(got.amp - psi.amp).max() < 1e-12


def test_scaled_and_raw_circuits_agree_after_angle_change():
    rng = np.random.default_rng(43)
    h = random_hamiltonian(rng, 4)
    scaled = qaoa.build_circuit(h, scaled=True)
    raw = qaoa.build_circuit(h, scaled=False)
    k = scaled.k_scale
    for _ in range(5):
        b, g = rng.uniform(-math.pi, math.pi, 2)
        e1 = qaoa.energy(scaled, qaoa.QaoaParams([b], [g])) * k
        e2 = qaoa.energy(raw, qaoa.QaoaParams([b], [g / k]))
        assert abs(e1 - e2) < 1e-12


def test_gate_execution_matches_fast_path():
    rng = np.random.default_rng(44)
    h = random_hamiltonian(rng, 4)
    spec = qaoa.build_circuit(h, layers=2)
    params = qaoa.QaoaParams(beta=[0.4, 1.3], gamma=[-0.7, 2.1])
    a = qaoa.run(spec, params)
    b = verify.gate_decomposed_run(spec, params)
    assert abs(1.0 - abs(np.vdot(a.amp, b.amp))) < 1e-12
    gate_energy = sim.expectation_diagonal(b, spec.energies)
    assert abs(qaoa.energy(spec, params) - gate_energy) < 1e-12


def random_instance(rng, n, p):
    return qaoa.build_circuit(verify.random_spin_mixed(rng, n), layers=p)


def test_energies_equal_energy_per_row(monkeypatch):
    rng = np.random.default_rng(48)
    for _ in range(30):
        n, p = int(rng.integers(1, 11)), int(rng.integers(1, 5))
        spec = random_instance(rng, n, p)
        rows = int(rng.integers(1, 12))
        angles = rng.uniform(-4.0, 4.0, (rows, 2 * p))
        want = np.array([qaoa.energy(spec, qaoa.QaoaParams.from_vector(a)) for a in angles])
        assert np.array_equal(qaoa.energies(spec, angles), want)
        # blocks of 1 to 4 states, so the last block is cut short
        monkeypatch.setattr(qaoa, "BLOCK_BYTES", (16 << n) * int(rng.integers(1, 5)) + 8)
        assert np.array_equal(qaoa.energies(spec, angles), want)
        monkeypatch.undo()


def test_energies_shapes():
    spec = qaoa.build_circuit(single_z(), layers=2)
    empty = qaoa.energies(spec, np.empty((0, 4)))
    assert empty.shape == (0,)
    for bad in (np.zeros((3, 2)), np.zeros((3, 5)), np.zeros(4)):
        with pytest.raises(ValueError, match="layers"):
            qaoa.energies(spec, bad)


def test_energies_reject_non_finite_entries(monkeypatch):
    spec = qaoa.build_circuit(qubo_to_spin(build_maxcut(4, [(0, 1), (1, 2), (2, 3), (3, 0)])))
    evolved = []
    evolve = qaoa._evolve
    monkeypatch.setattr(qaoa, "_evolve", lambda *a: evolved.append(1) or evolve(*a))
    for block_bytes in (qaoa.BLOCK_BYTES, 16 << spec.n):
        monkeypatch.setattr(qaoa, "BLOCK_BYTES", block_bytes)
        for bad in (math.nan, math.inf, -math.inf):
            for col in (0, 1):
                angles = np.full((3, 2), 0.4)
                angles[2, col] = bad
                with pytest.raises(ValueError, match="parameters must be finite"):
                    qaoa.energies(spec, angles)
    assert evolved == []


def test_term_signs():
    h = SpinHamiltonian(4, {(0,): 1.0, (1, 2): 2.0, (0, 1, 3): -0.5})
    signs = {idx: parity_sign(4, idx) for idx in h.terms}
    for idx, mask in (((0,), 0b1), ((1, 2), 0b110), ((0, 1, 3), 0b1011)):
        assert signs[idx].dtype == np.float64 and signs[idx].shape == (16,)
        for zi in range(16):
            parity = bin(zi & mask).count("1") % 2
            assert signs[idx][zi] == 1.0 - 2.0 * parity
    spec = qaoa.build_circuit(h, scaled=False)
    assert np.array_equal(spec.energies, 1.0 * signs[(0,)] + 2.0 * signs[(1, 2)] - 0.5 * signs[(0, 1, 3)])


def test_shot_energy_converges():
    rng = np.random.default_rng(45)
    h = random_hamiltonian(rng, 3)
    spec = qaoa.build_circuit(h)
    params = qaoa.QaoaParams([0.8], [0.5])
    exact = qaoa.energy(spec, params)
    est = qaoa.shot_energy(spec, params, 200000, 7)
    assert abs(est - exact) < 0.02


def test_shot_energy_equals_count_loop():
    # counts @ energies sums in another order than the per-outcome loop it replaced
    rng = np.random.default_rng(46)
    for _ in range(20):
        spec = random_instance(rng, int(rng.integers(1, 9)), int(rng.integers(1, 4)))
        params = qaoa.QaoaParams.from_vector(rng.uniform(-3.0, 3.0, 2 * spec.layers))
        shots, seed = int(rng.integers(1, 5000)), int(rng.integers(0, 1000))
        counts = sim.sample(qaoa.run(spec, params), shots, seed)
        total = 0.0
        for z in np.nonzero(counts)[0]:
            total += counts[z] * spec.energies[z]
        est = qaoa.shot_energy(spec, params, shots, seed)
        # a sum of 2^n terms in any order stays within 2^n ulps of the largest
        assert abs(est - total / shots) <= (1 << spec.n) * np.finfo(float).eps * np.abs(spec.energies).max()


def test_gradient_fd_matches_shift():
    rng = np.random.default_rng(46)
    for _ in range(5):
        h = random_hamiltonian(rng, int(rng.integers(2, 5)))
        p = int(rng.integers(1, 3))
        params = qaoa.QaoaParams(rng.uniform(-2, 2, p), rng.uniform(-2, 2, p))
        spec = qaoa.build_circuit(h, layers=p)
        g_fd = verify.fd_gradient(spec, params)
        g_sh = verify.shift_rule_gradient(spec, params)
        assert g_fd.shape == (2 * p,)
        assert np.abs(g_fd - g_sh).max() < 1e-7


def test_fd_gradient_equals_per_coordinate_loop(monkeypatch):
    rng = np.random.default_rng(49)
    for block_bytes in (qaoa.BLOCK_BYTES, 3 * (16 << 4)):
        monkeypatch.setattr(qaoa, "BLOCK_BYTES", block_bytes)
        for _ in range(5):
            p = int(rng.integers(1, 4))
            spec = random_instance(rng, 4, p)
            params = qaoa.QaoaParams(rng.uniform(-2, 2, p), rng.uniform(-2, 2, p))
            base = params.as_vector()
            want = np.zeros(base.size)
            for i in range(base.size):
                up, dn = base.copy(), base.copy()
                up[i] += verify.FD_STEP
                dn[i] -= verify.FD_STEP
                e_up = qaoa.energy(spec, qaoa.QaoaParams.from_vector(up))
                e_dn = qaoa.energy(spec, qaoa.QaoaParams.from_vector(dn))
                want[i] = (e_up - e_dn) / (2.0 * verify.FD_STEP)
            assert np.array_equal(verify.fd_gradient(spec, params), want)


def shift_rule_rerun(spec, params):
    """The shift-rule gradient with every inserted-gate run evolved from |+...+>."""
    p = params.p

    def energy_with(k, gate, target, angle):
        psi = sim.init_plus(spec.n)
        for j in range(p):
            sim.apply_diagonal_phase(psi, spec.energies, float(params.gamma[j]))
            if j == k:
                gate(psi, target, angle)
            for q in range(spec.n):
                sim.apply_rx(psi, q, float(params.beta[j]))
        return sim.expectation_diagonal(psi, spec.energies)

    def shift_diff(k, gate, target):
        return 0.5 * energy_with(k, gate, target, math.pi / 2.0) - 0.5 * energy_with(k, gate, target, -math.pi / 2.0)

    grad = np.zeros(2 * p)
    for k in range(p):
        grad[k] = sum(shift_diff(k, sim.apply_rx, q) for q in range(spec.n))
        grad[p + k] = sum(coef * shift_diff(k, sim.apply_rzk, idx) for idx, coef in spec.hamiltonian.terms.items())
    return grad


def test_shift_gradient_equals_full_rerun_loop(monkeypatch):
    rng = np.random.default_rng(50)
    for block_bytes in (qaoa.BLOCK_BYTES, 3 * (16 << 5)):
        monkeypatch.setattr(qaoa, "BLOCK_BYTES", block_bytes)
        for _ in range(4):
            p = int(rng.integers(1, 4))
            spec = random_instance(rng, 5, p)
            params = qaoa.QaoaParams(rng.uniform(-2, 2, p), rng.uniform(-2, 2, p))
            assert np.array_equal(verify.shift_rule_gradient(spec, params), shift_rule_rerun(spec, params))


def test_adjoint_gradient_matches_shift_rule():
    rng = np.random.default_rng(52)
    for _ in range(30):
        n, p = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        spec = random_instance(rng, n, p)
        assert max(len(idx) for idx in spec.hamiltonian.terms) <= 4
        params = qaoa.QaoaParams(rng.uniform(-2, 2, p), rng.uniform(-2, 2, p))
        g = qaoa.parameter_shift_gradient(spec, params)
        assert g.shape == (2 * p,)
        assert np.abs(g - verify.shift_rule_gradient(spec, params)).max() <= 1e-12


def test_depth_mismatch_raises():
    spec = qaoa.build_circuit(single_z(), layers=1)
    params = qaoa.QaoaParams([0.1, 0.2], [0.3, 0.4])
    for call in (qaoa.run, qaoa.energy, qaoa.parameter_shift_gradient, verify.fd_gradient,
                 verify.shift_rule_gradient):
        with pytest.raises(ValueError, match="layers"):
            call(spec, params)


def test_shift_gradient_memory_is_a_few_states():
    # one gradient of a dense n=12 QUBO must not hold a per-term sign table
    # (78 terms x 2^12 float64, about 2.5 MB)
    rng = np.random.default_rng(47)
    spec = qaoa.build_circuit(random_hamiltonian(rng, 12))
    assert len(spec.hamiltonian.terms) == 78
    params = qaoa.QaoaParams([0.4], [0.9])
    state_bytes = 16 << 12
    tracemalloc.start()
    try:
        verify.shift_rule_gradient(spec, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * state_bytes, peak


def test_energy_memory_is_a_few_states():
    # the mixer updates in place: one state-sized temporary per qubit, freed
    # before the next qubit's
    rng = np.random.default_rng(51)
    n = 14
    spec = qaoa.build_circuit(random_hamiltonian(rng, n), layers=2)
    params = qaoa.QaoaParams([0.4, -1.1], [0.9, 0.3])
    tracemalloc.start()
    try:
        qaoa.energy(spec, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.75 * (16 << n), peak


def test_adjoint_gradient_memory_is_two_states_and_temporaries():
    # phi and lam stay two single states, not a (2, 2^n) block
    rng = np.random.default_rng(51)
    n = 14
    spec = qaoa.build_circuit(random_hamiltonian(rng, n), layers=2)
    params = qaoa.QaoaParams([0.4, -1.1], [0.9, 0.3])
    tracemalloc.start()
    try:
        qaoa.parameter_shift_gradient(spec, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.75 * (16 << n), peak


def test_scan_memory_is_its_values():
    # a scan must not hold resolution^2-sized angle or state arrays
    spec = qaoa.build_circuit(SpinHamiltonian(2, {(0,): 0.5, (0, 1): 1.0}))
    resolution = 1024
    values_bytes = 8 * resolution ** 2
    tracemalloc.start()
    try:
        qaoa.landscape_scan(spec, resolution)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * values_bytes, peak


def test_gradient_matches_energy_slope():
    spec = qaoa.build_circuit(single_z())
    params = qaoa.QaoaParams([0.6], [1.1])
    g = verify.shift_rule_gradient(spec, params)
    # E = sin(b) sin(g): dE/db = cos(b) sin(g), dE/dg = sin(b) cos(g)
    assert abs(g[0] - math.cos(0.6) * math.sin(1.1)) < 1e-10
    assert abs(g[1] - math.sin(0.6) * math.cos(1.1)) < 1e-10


def test_landscape_grid_shape_and_values():
    h = qubo_to_spin(build_maxcut(3, [(0, 1), (1, 2)]))
    spec = qaoa.build_circuit(h)
    grid = qaoa.landscape_scan(spec, 2)
    assert grid.values.shape == (2, 2)
    assert grid.beta_axis.tolist() == [-math.pi, math.pi]
    grid5 = qaoa.landscape_scan(spec, 5, beta_range=(0.0, 1.0), gamma_range=(-1.0, 1.0))
    for i, b in enumerate(grid5.beta_axis):
        for j, g in enumerate(grid5.gamma_axis):
            assert grid5.values[i, j] == qaoa.energy(spec, qaoa.QaoaParams([b], [g]))
    with pytest.raises(ValueError):
        qaoa.landscape_scan(spec, 1)
    with pytest.raises(ValueError):
        qaoa.landscape_scan(qaoa.build_circuit(h, layers=2), 3)
    for box in ((-math.inf, math.inf), (0.0, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            qaoa.landscape_scan(spec, 3, beta_range=box)
        with pytest.raises(ValueError, match="finite"):
            qaoa.landscape_scan(spec, 3, gamma_range=box)


def test_landscape_scan_equals_per_point_loop(monkeypatch):
    rng = np.random.default_rng(52)
    for n, block_bytes in ((2, qaoa.BLOCK_BYTES), (5, qaoa.BLOCK_BYTES), (5, 4 * (16 << 5)), (12, qaoa.BLOCK_BYTES)):
        monkeypatch.setattr(qaoa, "BLOCK_BYTES", block_bytes)
        spec = random_instance(rng, n, 1)
        grid = qaoa.landscape_scan(spec, 7, beta_range=(-0.5, 2.0), gamma_range=(-3.0, 1.0))
        want = np.array([[qaoa.energy(spec, qaoa.QaoaParams([b], [g])) for g in grid.gamma_axis]
                         for b in grid.beta_axis])
        assert np.array_equal(grid.values, want)


def test_landscape_csv_format():
    h = qubo_to_spin(build_maxcut(2, [(0, 1)]))
    grid = qaoa.landscape_scan(qaoa.build_circuit(h), 2)
    lines = grid.to_csv().strip().split("\n")
    assert lines[0].startswith("beta\\gamma,")
    assert len(lines) == 3
    assert len(lines[1].split(",")) == 3


def test_restricted_domain():
    even = qaoa.build_circuit(SpinHamiltonian(2, {(0, 1): 1.0}))
    dom = qaoa.restricted_domain(even)
    assert dom.fully_restricted
    assert dom.beta_range == (0.0, math.pi) and dom.gamma_range == (0.0, math.pi)
    assert 2 ** (dom.reduction_exponent_per_layer * 3) == 2 ** 6

    odd = qaoa.build_circuit(SpinHamiltonian(2, {(0,): 1.0, (0, 1): 1.0}))
    dom2 = qaoa.restricted_domain(odd)
    assert not dom2.fully_restricted
    assert dom2.gamma_range == (-math.pi, math.pi)
    assert 2 ** (dom2.reduction_exponent_per_layer * 3) == 2 ** 3
