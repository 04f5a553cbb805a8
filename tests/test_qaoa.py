import dataclasses
import math
import tracemalloc
import types

import numpy as np
import pytest

from qaoaforge import qaoa, verify
from qaoaforge import simulator as sim
from qaoaforge.ising import SpinHamiltonian, parity_sign, qubo_to_spin
from qaoaforge.model import build_maxcut, build_qubo
from qaoaforge.optimize import OptimizerConfig, optimize


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
            verify.apply_rx(psi, q, float(params.beta[k]))
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
    # one-row blocks past TILE_QUBITS: the tiled mixer with per-row coefficient columns
    spec = qaoa.build_circuit(random_hamiltonian(rng, 16), layers=2)
    assert spec.n > sim.TILE_QUBITS
    angles = rng.uniform(-4.0, 4.0, (2, 4))
    want = np.array([qaoa.energy(spec, qaoa.QaoaParams.from_vector(a)) for a in angles])
    monkeypatch.setattr(qaoa, "energy", None)
    assert np.array_equal(qaoa.energies(spec, angles), want)


def ring_with_chords(n, weights=None):
    """Max-cut of the n-ring plus chords i -- i + n/2; with weights, couplings w_e on Z_i Z_j."""
    edges = [tuple(sorted((i, (i + 1) % n))) for i in range(n)] + [(i, i + n // 2) for i in range(0, n // 2, 2)]
    if weights is None:
        return qubo_to_spin(build_maxcut(n, edges))
    return SpinHamiltonian(n, {e: float(w) for e, w in zip(edges, weights)})


def test_block_rows_form_no_math_scalars(monkeypatch):
    # a multi-row block takes its coefficients from numpy's row-wise calls: no per-row Python loop
    calls = []

    def counted(name):
        return lambda x: calls.append(name) or getattr(math, name)(x)
    monkeypatch.setattr(sim, "math", types.SimpleNamespace(cos=counted("cos"), sin=counted("sin")))
    spec = random_instance(np.random.default_rng(61), 5, 5)
    e = qaoa.energies(spec, np.random.default_rng(62).uniform(-3.0, 3.0, (30, 10)))
    assert e.shape == (30,) and calls == []
    qaoa.energy(spec, qaoa.QaoaParams.from_vector(np.full(10, 0.3)))  # a float angle still goes through math
    assert calls.count("cos") == 5


def test_level_table_condition():
    # integer coefficients give levels -span..span and a 1- or 2-byte index at any qubit count,
    # as long as the levels number at most half the entries
    for n in (5, 6, 8):
        spec = qaoa.build_circuit(ring_with_chords(n))
        levels, index = spec.level_table
        span = len(spec.hamiltonian.terms)  # every scaled coupling is +/-1
        assert np.array_equal(levels, np.arange(-span, span + 1))
        assert index.dtype == np.uint8 and np.array_equal(levels[index], spec.energies)
    big = SpinHamiltonian(12, {(q,): 40.0 + q for q in range(10)} | {(0, 5): 3.0})
    levels, index = qaoa.build_circuit(big, scaled=False).level_table
    assert index.dtype == np.uint16 and len(levels) == 2 * 448 + 1
    assert np.array_equal(levels[index], qaoa.build_circuit(big, scaled=False).energies)
    assert qaoa.build_circuit(big).level_table is None                      # 3/43 after scaling
    assert qaoa.build_circuit(random_hamiltonian(np.random.default_rng(57), 8)).level_table is None
    # more levels than half the entries: the cos and sin of every level would cost more
    assert qaoa.build_circuit(SpinHamiltonian(8, {(0,): 64.0, (1, 2): 1.0}), scaled=False).level_table is None
    assert qaoa.build_circuit(ring_with_chords(4)).level_table is None     # 11 levels, 16 entries


def test_spec_tables_are_read_only():
    # U_f reads the level table and the expectation reads energies, so a write to one would split them
    for n, has_table in ((4, False), (5, True)):
        spec = qaoa.build_circuit(ring_with_chords(n))
        assert (spec.level_table is not None) == has_table
        for table in (spec.energies, *(spec.level_table or ())):
            with pytest.raises(ValueError, match="read-only"):
                table[:] = table * 2


def test_gamma_period_needs_integer_coefficients():
    # U_f(gamma) = e^{-i(gamma/2)H}: integer coefficients make every level gap even, so 2 pi is a period
    rng = np.random.default_rng(59)
    ring = qaoa.build_circuit(qubo_to_spin(build_maxcut(5, [(i, (i + 1) % 5) for i in range(5)])))
    real = qaoa.build_circuit(SpinHamiltonian(3, {(0,): 1.0, (0, 1): 0.3, (1, 2): -0.7}))
    for spec, periodic in ((ring, True), (real, False)):
        angles = rng.uniform(-math.pi, math.pi, (8, 2))
        shifted = angles + [0.0, 2.0 * math.pi]
        gap = np.abs(qaoa.energies(spec, shifted) - qaoa.energies(spec, angles)).max()
        assert (gap < 1e-12) == periodic, gap


def test_level_table_changes_no_number():
    # every caller of the phase route, with the table and without it, bit for bit
    rng = np.random.default_rng(58)
    for n, p in ((8, 2), (10, 1), (12, 3)):
        table = qaoa.build_circuit(ring_with_chords(n, rng.integers(-3, 4, 2 * n)), layers=p, scaled=False)
        assert table.level_table is not None
        direct = dataclasses.replace(table, level_table=None)
        angles = rng.uniform(-3.0, 3.0, (5, 2 * p))
        params = qaoa.QaoaParams.from_vector(angles[0])
        assert np.array_equal(qaoa.run(table, params).amp, qaoa.run(direct, params).amp)
        assert np.array_equal(qaoa.energies(table, angles), qaoa.energies(direct, angles))
        e_table, g_table = qaoa.energy_and_gradient(table, angles)
        e_direct, g_direct = qaoa.energy_and_gradient(direct, angles)
        assert np.array_equal(e_table, e_direct) and np.array_equal(g_table, g_direct)
        if p == 1:
            assert np.array_equal(qaoa.landscape_scan(table, 9).values, qaoa.landscape_scan(direct, 9).values)


def test_energy_and_gradient_equals_energy_and_shift_rule():
    rng = np.random.default_rng(59)
    for n, p in ((3, 2), (8, 3), (11, 1)):
        for spec in (random_instance(rng, n, p), qaoa.build_circuit(ring_with_chords(n + n % 2), layers=p)):
            params = qaoa.QaoaParams.from_vector(rng.uniform(-3.0, 3.0, 2 * p))
            (e,), (g,) = qaoa.energy_and_gradient(spec, params.as_vector()[None])
            assert e == qaoa.energy(spec, params)
            assert np.abs(g - verify.shift_rule_gradient(spec, params)).max() <= 1e-12


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


def with_level_table(spec):
    """spec with a level table built by hand, so one with more levels than half its entries runs the table route too."""
    span = int(sum(abs(c) for c in spec.hamiltonian.terms.values()))
    table = (np.arange(-span, span + 1, dtype=float), (spec.energies + span).astype(np.uint8))
    return dataclasses.replace(spec, level_table=table)


def test_block_routes_equal_one_row_calls(monkeypatch):
    # B rows of energy_and_gradient and shot_energies equal one-row calls bit for bit: at n = 5
    # a block holds many rows (and, with a small BLOCK_BYTES, ends cut short), at n = 12 one
    rng = np.random.default_rng(60)
    for n, p, block_bytes in ((5, 3, qaoa.BLOCK_BYTES), (5, 2, 3 * (32 << 5) + 8), (12, 2, qaoa.BLOCK_BYTES)):
        monkeypatch.setattr(qaoa, "BLOCK_BYTES", block_bytes)
        table = with_level_table(qaoa.build_circuit(ring_with_chords(n, rng.integers(-3, 4, 2 * n)),
                                                    layers=p, scaled=False))
        for spec in (table, dataclasses.replace(table, level_table=None)):
            angles = rng.uniform(-3.0, 3.0, (7, 2 * p))
            e, g = qaoa.energy_and_gradient(spec, angles)
            assert e.shape == (7,) and g.shape == (7, 2 * p)
            for i, row in enumerate(angles):
                (e1,), (g1,) = qaoa.energy_and_gradient(spec, row[None])
                assert e1 == e[i] and np.array_equal(g1, g[i])
            assert np.array_equal(e, qaoa.energies(spec, angles))
            shots = qaoa.shot_energies(spec, angles, 300, [np.random.default_rng([3, i]) for i in range(7)])
            for i, row in enumerate(angles):
                assert qaoa.shot_energies(spec, row[None], 300, [np.random.default_rng([3, i])]) == shots[i]
                counts = sim.sample(qaoa.run(spec, qaoa.QaoaParams.from_vector(row)), 300, np.random.default_rng([3, i]))
                assert counts @ spec.energies / 300 == shots[i]
    assert spec.n == 12 and table.level_table is not None


def test_block_routes_check_rows_before_evolving(monkeypatch):
    spec = qaoa.build_circuit(single_z(), layers=2)
    monkeypatch.setattr(qaoa, "_evolve", None)
    for call in (lambda a: qaoa.energy_and_gradient(spec, a), lambda a: qaoa.shot_energies(spec, a, 10, [0] * 3)):
        for bad in (np.zeros((3, 2)), np.zeros(4)):
            with pytest.raises(ValueError, match="layers"):
                call(bad)
        with pytest.raises(ValueError, match="parameters must be finite"):
            call(np.full((3, 4), math.nan))
    with pytest.raises(ValueError, match="2 generators for 3 angle rows"):
        qaoa.shot_energies(spec, np.zeros((3, 4)), 10, [0, 1])
    assert qaoa.shot_energies(spec, np.empty((0, 4)), 10, []).shape == (0,)
    e, g = qaoa.energy_and_gradient(spec, np.empty((0, 4)))
    assert e.shape == (0,) and g.shape == (0, 4)


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
    (est,) = qaoa.shot_energies(spec, params.as_vector()[None], 200000, [7])
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
        (est,) = qaoa.shot_energies(spec, params.as_vector()[None], shots, [seed])
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
                verify.apply_rx(psi, q, float(params.beta[j]))
        return sim.expectation_diagonal(psi, spec.energies)

    def rzk(psi, idx, angle):
        sim.apply_diagonal_phase(psi, parity_sign(spec.n, idx), angle)

    def shift_diff(k, gate, target):
        return 0.5 * energy_with(k, gate, target, math.pi / 2.0) - 0.5 * energy_with(k, gate, target, -math.pi / 2.0)

    grad = np.zeros(2 * p)
    for k in range(p):
        grad[k] = sum(shift_diff(k, verify.apply_rx, q) for q in range(spec.n))
        grad[p + k] = sum(coef * shift_diff(k, rzk, idx) for idx, coef in spec.hamiltonian.terms.items())
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
        g = qaoa.energy_and_gradient(spec, params.as_vector()[None])[1]
        assert g.shape == (1, 2 * p)
        assert np.abs(g - verify.shift_rule_gradient(spec, params)).max() <= 1e-12


def test_depth_mismatch_raises():
    spec = qaoa.build_circuit(single_z(), layers=1)
    params = qaoa.QaoaParams([0.1, 0.2], [0.3, 0.4])
    for call in (qaoa.run, qaoa.energy, verify.fd_gradient, verify.shift_rule_gradient):
        with pytest.raises(ValueError, match="layers"):
            call(spec, params)
    with pytest.raises(ValueError, match="layers"):
        qaoa.energy_and_gradient(spec, params.as_vector()[None])


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
        tracemalloc.reset_peak()
        qaoa.energies(spec, params.as_vector()[None])  # a one-row block
        _, block_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.75 * (16 << n), peak
    assert block_peak <= 2.75 * (16 << n), block_peak


def test_adjoint_gradient_memory_is_two_states_and_temporaries():
    # phi and lam are two one-row blocks, not one (2, 2^n) block
    rng = np.random.default_rng(51)
    n = 14
    spec = qaoa.build_circuit(random_hamiltonian(rng, n), layers=2)
    params = qaoa.QaoaParams([0.4, -1.1], [0.9, 0.3])
    tracemalloc.start()
    try:
        qaoa.energy_and_gradient(spec, params.as_vector()[None])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.75 * (16 << n), peak


def test_energies_releases_each_block_before_the_next():
    # one block's states go before the next block's |+> and phase temporaries;
    # a non-integer instance, so the direct phase with its 1.5 states of temporaries runs
    n = 16
    spec = random_instance(np.random.default_rng(55), n, 1)
    assert spec.level_table is None
    angles = np.random.default_rng(56).uniform(-3.0, 3.0, (3, 2))
    tracemalloc.start()
    try:
        qaoa.energies(spec, angles)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.75 * (16 << n), peak


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
    # 4-row blocks over 7 beta rows end in a partial block; n = 16 mixes
    # one-row copies with the tiled mixer
    rng = np.random.default_rng(52)
    cases = ((2, qaoa.BLOCK_BYTES, 7), (5, qaoa.BLOCK_BYTES, 7), (5, 4 * (16 << 5), 7),
             (12, qaoa.BLOCK_BYTES, 7), (16, qaoa.BLOCK_BYTES, 5))
    for n, block_bytes, resolution in cases:
        monkeypatch.setattr(qaoa, "BLOCK_BYTES", block_bytes)
        spec = random_instance(rng, n, 1)
        grid = qaoa.landscape_scan(spec, resolution, beta_range=(-0.5, 2.0), gamma_range=(-3.0, 1.0))
        want = np.array([[qaoa.energy(spec, qaoa.QaoaParams([b], [g])) for g in grid.gamma_axis]
                         for b in grid.beta_axis])
        assert np.array_equal(grid.values, want)


def test_landscape_scan_forms_each_gamma_column_once(monkeypatch):
    # gamma-major: one |+> and one U_f(gamma) per column, not per grid point,
    # through the direct phase or the level table
    mixed = random_instance(np.random.default_rng(53), 12, 1)
    ring = qaoa.build_circuit(qubo_to_spin(build_maxcut(12, [(i, (i + 1) % 12) for i in range(12)])))
    calls = {"init_plus": 0, "apply_diagonal_phase": 0, "apply_level_phase": 0}
    for name in calls:
        kernel = getattr(sim, name)
        monkeypatch.setattr(sim, name, lambda *a, name=name, kernel=kernel, **k: calls.update({name: calls[name] + 1})
                            or kernel(*a, **k))
    for spec, phase in ((mixed, "apply_diagonal_phase"), (ring, "apply_level_phase")):
        calls.update(dict.fromkeys(calls, 0))
        qaoa.landscape_scan(spec, 7)
        assert calls == {"init_plus": 7, "apply_diagonal_phase": 0, "apply_level_phase": 0, phase: 7}


def extra_threads_states(n):
    """States (16 * 2^n bytes) that each tile thread past the first may hold at once:
    one tile's mixer temporary plus numpy's ufunc buffer, as in test_simulator."""
    threads = min(sim._WORKERS, 1 << max(n - sim.TILE_QUBITS, 0))
    return (threads - 1) * ((1 << sim.TILE_QUBITS) + np.getbufsize()) / (1 << n)


def test_scan_memory_at_tiled_size_is_a_few_states(monkeypatch):
    # the column state, one block copy and the expectation's temporaries, plus a
    # tile temporary per extra thread; each column's states go before the next
    # column's |+> and direct-phase temporaries
    n = 16
    spec = random_instance(np.random.default_rng(54), n, 1)
    assert spec.level_table is None
    for workers in sorted({1, sim._WORKERS}):
        monkeypatch.setattr(sim, "_WORKERS", workers)
        tracemalloc.start()
        try:
            qaoa.landscape_scan(spec, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (3.25 + extra_threads_states(n)) * (16 << n), (workers, peak)


@pytest.mark.parametrize("route", ["direct", "table"])
def test_memory_table_at_16_qubits(route, monkeypatch):
    # README's memory table: traced peaks in states (16 * 2^n bytes) at n = 16, through
    # the direct phase and the level table, on one tile thread and on all of them; the
    # direct phase's energies and scan rows are the two tests above
    n = 16
    h = verify.random_spin_mixed(np.random.default_rng(57), n) if route == "direct" else ring_with_chords(n)
    spec, spec1 = (qaoa.build_circuit(h, layers=p) for p in (2, 1))
    assert (spec.level_table is not None) == (route == "table")
    params = qaoa.QaoaParams([0.4, -1.1], [0.9, 0.3])
    over = {}
    for workers in sorted({1, sim._WORKERS}):
        monkeypatch.setattr(sim, "_WORKERS", workers)
        rows = {
            "run": (2.75, lambda: qaoa.run(spec, params)),
            "energy": (2.75, lambda: qaoa.energy(spec, params)),
            "energies": (2.75, lambda: qaoa.energies(spec, np.random.default_rng(58).uniform(-3.0, 3.0, (3, 4)))),
            "landscape_scan": (3.25 + extra_threads_states(n), lambda: qaoa.landscape_scan(spec1, 3)),
            "energy_and_gradient": (3.75, lambda: qaoa.energy_and_gradient(spec, params.as_vector()[None])),
            "gd": (3.75, lambda: optimize(spec, OptimizerConfig(method="gd", max_iters=2, restarts=1, seed=0))),
            "spsa": (2.75, lambda: optimize(spec, OptimizerConfig(max_iters=2, restarts=1, seed=0, a0=0.5))),
        }
        if route == "direct":
            del rows["energies"], rows["landscape_scan"]
        for name, (bound, call) in rows.items():
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1] / (16 << n)
            finally:
                tracemalloc.stop()
            if peak > bound:
                over[workers, name] = peak
    assert over == {}


@pytest.mark.parametrize("route", ["direct", "table"])
def test_layer_memory_at_18_qubits(route):
    # past TILE_QUBITS a layer forms no 2^n phase: run holds its state plus, per tile
    # thread, a tile's phase or mixer temporaries (1.5 tiles at most), where the phase
    # pass before the mixer held 1.5 states; energy adds the expectation's one state
    n = 18
    h = verify.random_spin_mixed(np.random.default_rng(59), n) if route == "direct" else ring_with_chords(n)
    spec = qaoa.build_circuit(h, layers=2)
    assert (spec.level_table is not None) == (route == "table")
    params = qaoa.QaoaParams([0.4, -1.1], [0.9, 0.3])
    threads = min(sim._WORKERS, 1 << (n - sim.TILE_QUBITS))
    run_bound = 1.0 + threads * 1.5 * (1 << sim.TILE_QUBITS) / (1 << n) + 0.01
    peaks = {}
    for name, call in (("run", lambda: qaoa.run(spec, params)), ("energy", lambda: qaoa.energy(spec, params))):
        tracemalloc.start()
        try:
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1] / (16 << n)
        finally:
            tracemalloc.stop()
    assert peaks["run"] <= run_bound, (peaks, run_bound)
    assert peaks["energy"] <= max(2.01, run_bound), (peaks, run_bound)


def test_parallel_tiles_equal_one_thread(monkeypatch):
    # every tiled route on the pool against _WORKERS = 1, bit for bit, past TILE_QUBITS
    # on both U_f routes: forward rows, shots, the adjoint gradient and a scan
    rng = np.random.default_rng(60)
    for n in (16, 17):
        for h in (ring_with_chords(n), verify.random_spin_mixed(rng, n)):
            spec, spec1 = (qaoa.build_circuit(h, layers=p) for p in (2, 1))
            angles = rng.uniform(-3.0, 3.0, (2, 4))
            calls = {
                "run": lambda: qaoa.run(spec, qaoa.QaoaParams.from_vector(angles[0])).amp,
                "energies": lambda: qaoa.energies(spec, angles),
                "shot_energies": lambda: qaoa.shot_energies(spec, angles, 50, np.array([3, 4])),
                "energy_and_gradient": lambda: np.column_stack(qaoa.energy_and_gradient(spec, angles)),
                "landscape_scan": lambda: qaoa.landscape_scan(spec1, 3).values,
            }
            for name, call in calls.items():
                monkeypatch.setattr(sim, "_WORKERS", max(2, sim._WORKERS))
                pooled = call()
                monkeypatch.setattr(sim, "_WORKERS", 1)
                assert np.array_equal(pooled, call()), (n, spec.level_table is None, name)


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
