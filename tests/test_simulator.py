import math
import tracemalloc

import numpy as np
import pytest

from qaoaforge.errors import SizeCapError
from qaoaforge.ising import parity_sign
from qaoaforge import dense
from qaoaforge import simulator as sim


def random_state(rng, n):
    amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amp /= np.linalg.norm(amp)
    return sim.StateVector(n, amp)


def basis(n, z):
    """Computational basis state |z>."""
    amp = np.zeros(1 << n, dtype=np.complex128)
    amp[z] = 1.0
    return sim.StateVector(n, amp)


def test_init_plus():
    psi = sim.init_plus(2)
    assert np.allclose(psi.amp, [0.5, 0.5, 0.5, 0.5])
    assert psi.norm_error() < 1e-15


def test_statevector_cap():
    with pytest.raises(SizeCapError):
        sim.init_plus(sim.STATEVECTOR_CAP + 1)


def test_rx_on_zero():
    psi = basis(1, 0)
    sim.apply_rx(psi, 0, 0.8)
    assert abs(psi.amp[0] - math.cos(0.4)) < 1e-15
    assert abs(psi.amp[1] - (-1j * math.sin(0.4))) < 1e-15


def test_rx_acts_on_named_qubit():
    psi = basis(2, 0)
    sim.apply_rx(psi, 1, math.pi)  # |00> -> -i|10>: flips bit 1, index 2
    assert abs(psi.amp[2] + 1j) < 1e-12
    assert abs(psi.amp[0]) < 1e-12


def two_temporary_mixer(amp, beta):
    """R_x(beta) on every qubit as two half-state temporaries per qubit.

    beta is a float, or one angle per row of a (B, 2^n) block, whose
    coefficients are formed row by row with math.cos and math.sin.
    """
    if isinstance(beta, np.ndarray):
        c = np.array([math.cos(b / 2.0) for b in beta.tolist()], dtype=np.complex128)[:, None, None]
        s = np.array([-1j * math.sin(b / 2.0) for b in beta.tolist()])[:, None, None]
    else:
        c, s = math.cos(beta / 2.0), -1j * math.sin(beta / 2.0)
    for q in range(amp.shape[-1].bit_length() - 1):
        v = amp.reshape(amp.shape[:-1] + (-1, 2, 1 << q))
        a0, a1 = v[..., 0, :], v[..., 1, :]
        new0 = c * a0 + s * a1
        new1 = s * a0 + c * a1
        a0[:] = new0
        a1[:] = new1


def test_mixer_matches_two_temporary_loop(monkeypatch):
    # with 3-qubit tiles every n from 4 on runs the row and column sweeps,
    # n = 12 on one-amplitude-wide column tiles
    rng = np.random.default_rng(39)
    for tile in (sim.TILE_QUBITS, 3):
        monkeypatch.setattr(sim, "TILE_QUBITS", tile)
        for n in range(1, 13):
            for rows, per_row in ((None, False), (3, False), (3, True)):
                shape = 1 << n if rows is None else (rows, 1 << n)
                amp = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                beta = rng.uniform(-7.0, 7.0, rows) if per_row else float(rng.uniform(-7.0, 7.0))
                psi = sim.StateVector(n, amp.copy())
                sim.apply_mixer(psi, beta)
                two_temporary_mixer(amp, beta)
                assert np.array_equal(psi.amp, amp), (tile, n, rows, per_row)


def test_mixer_matches_dense_kronecker_product(monkeypatch):
    rng = np.random.default_rng(40)
    for tile in (sim.TILE_QUBITS, 3):
        monkeypatch.setattr(sim, "TILE_QUBITS", tile)
        for n in range(1, 7):
            beta = float(rng.uniform(-7.0, 7.0))
            got = dense.operator_of(lambda psi: sim.apply_mixer(psi, beta), n)
            want = dense.kron_factors([dense.rx_matrix(beta)] * n)
            assert np.abs(got - want).max() < 1e-13, (tile, n)


def test_tiled_mixer_at_17_qubits_keeps_one_tile_temporary():
    n = 17
    assert n > sim.TILE_QUBITS
    rng = np.random.default_rng(42)
    amp = rng.normal(size=2 << n).view(np.complex128)
    psi = sim.StateVector(n, amp.copy())
    tracemalloc.start()
    sim.apply_mixer(psi, 0.83)
    extra = tracemalloc.get_traced_memory()[1] / amp.nbytes
    tracemalloc.stop()
    two_temporary_mixer(amp, 0.83)
    assert np.array_equal(psi.amp, amp)
    # one 2^TILE_QUBITS tile's temporary (a quarter state), plus the buffer
    # numpy's ufunc loop takes for the reversed view in _rx (8192 amplitudes);
    # the untiled update held a whole state and the same buffer
    tile = ((1 << sim.TILE_QUBITS) + np.getbufsize()) / (1 << n)
    assert extra <= tile + 0.01, (extra, tile)


def test_rz_phases():
    theta = 1.3
    psi = sim.init_plus(1)
    sim.apply_rz(psi, 0, theta)
    assert abs(psi.amp[0] - np.exp(-1j * theta / 2) / math.sqrt(2)) < 1e-15
    assert abs(psi.amp[1] - np.exp(+1j * theta / 2) / math.sqrt(2)) < 1e-15


def test_cnot_truth_table():
    # control 0, target 1: basis order z = (bit1 bit0)
    for z_in, z_out in [(0, 0), (1, 3), (2, 2), (3, 1)]:
        psi = basis(2, z_in)
        sim.apply_cnot(psi, 0, 1)
        assert abs(psi.amp[z_out] - 1.0) < 1e-15
    for z_in, z_out in [(0, 0), (1, 1), (2, 3), (3, 2)]:
        psi = basis(2, z_in)
        sim.apply_cnot(psi, 1, 0)
        assert abs(psi.amp[z_out] - 1.0) < 1e-15
    psi = basis(2, 0)
    with pytest.raises(ValueError):
        sim.apply_cnot(psi, 0, 0)


def test_cnot_matches_permutation_index():
    # |z> -> |z ^ (bit c of z) << t>, as a gather over basis indices
    rng = np.random.default_rng(34)
    for n in range(2, 8):
        z = np.arange(1 << n)
        for c in range(n):
            for t in range(n):
                if c == t:
                    continue
                psi = random_state(rng, n)
                want = psi.amp[z ^ (((z >> c) & 1) << t)]
                sim.apply_cnot(psi, c, t)
                assert np.array_equal(psi.amp, want)


def test_rzz_diagonal_phases():
    theta = 0.9
    psi = sim.init_plus(2)
    sim.apply_rzz(psi, 0, 1, theta)
    em, ep = np.exp(-1j * theta / 2) / 2, np.exp(1j * theta / 2) / 2
    assert np.allclose(psi.amp, [em, ep, ep, em])


def test_rzk_parity_sign():
    rng = np.random.default_rng(31)
    n, theta = 4, 1.7
    psi = random_state(rng, n)
    before = psi.amp.copy()
    sim.apply_rzk(psi, (0, 2, 3), theta)
    mask = 0b1101
    for z in range(1 << n):
        parity = bin(z & mask).count("1") % 2
        phase = np.exp(-1j * (theta / 2) * (1 - 2 * parity))
        assert abs(psi.amp[z] - phase * before[z]) < 1e-12


def test_rzk_view_matches_full_sign_phase():
    # pins apply_rzk to apply_diagonal_phase of the full parity_sign at n = 12 and 14
    rng = np.random.default_rng(34)
    for n in (12, 14):
        for qubits in ((3,), (n - 1,), (2, 9), (7, 8), (8, 9, 10), (0, 5, 9, n - 1), tuple(range(n - 8, n))):
            theta = float(rng.uniform(-6, 6))
            for rows in (None, 3):
                amp = rng.normal(size=(rows or 1, 1 << n)) + 1j * rng.normal(size=(rows or 1, 1 << n))
                a = sim.StateVector(n, amp[0].copy() if rows is None else amp.copy())
                b = sim.StateVector(n, a.amp.copy())
                sim.apply_rzk(a, qubits, theta)
                sim.apply_diagonal_phase(b, parity_sign(n, qubits), theta)
                assert np.array_equal(a.amp, b.amp), (n, qubits, rows)


def test_rzk_ladder_matches_direct():
    rng = np.random.default_rng(32)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n + 1))
        qubits = tuple(sorted(rng.choice(n, size=k, replace=False)))
        theta = float(rng.uniform(-6, 6))
        a = random_state(rng, n)
        b = sim.StateVector(n, a.amp.copy())
        sim.apply_rzk(a, qubits, theta)
        sim.apply_rzk_ladder(b, qubits, theta)
        assert np.abs(a.amp - b.amp).max() < 1e-12


def test_qubit_index_validation():
    psi = sim.init_plus(2)
    with pytest.raises(ValueError):
        sim.apply_rx(psi, 2, 0.1)
    with pytest.raises(ValueError):
        sim.apply_rzk(psi, (0, 0), 0.1)
    with pytest.raises(ValueError):
        sim.apply_rzk(psi, (), 0.1)
    with pytest.raises(ValueError):
        sim.apply_rzz(psi, 1, 1, 0.1)


def test_norm_preserved_random_circuit():
    rng = np.random.default_rng(33)
    psi = random_state(rng, 5)
    for _ in range(40):
        gate = rng.integers(0, 4)
        theta = float(rng.uniform(-6, 6))
        q = int(rng.integers(0, 5))
        if gate == 0:
            sim.apply_rx(psi, q, theta)
        elif gate == 1:
            sim.apply_rz(psi, q, theta)
        elif gate == 2:
            r = int((q + 1 + rng.integers(0, 4)) % 5)
            sim.apply_cnot(psi, q, r)
        else:
            qs = tuple(sorted(rng.choice(5, size=3, replace=False)))
            sim.apply_rzk_ladder(psi, qs, theta)
    assert psi.norm_error() < 1e-12


def test_diagonal_phase_matches_per_term_gates():
    rng = np.random.default_rng(34)
    n = 4
    energies = rng.normal(size=1 << n)
    gamma = 0.77
    a = random_state(rng, n)
    before = a.amp.copy()
    sim.apply_diagonal_phase(a, energies, gamma)
    assert np.abs(a.amp - np.exp(-1j * (gamma / 2) * energies) * before).max() < 1e-12


def test_diagonal_phase_is_bitwise_exp():
    # the cos/sin factor equals np.exp of the imaginary argument exactly, for
    # one state and for a block; acting on ones leaves the factor itself
    rng = np.random.default_rng(37)
    for n in (1, 3, 8, 14, 18):
        energies = rng.normal(size=1 << n) * rng.uniform(0.1, 5.0)
        gammas = rng.uniform(-7.0, 7.0, 3)
        block = sim.StateVector(n, np.ones((3, 1 << n), dtype=np.complex128))
        sim.apply_diagonal_phase(block, energies, gammas)
        for gamma, row in zip(gammas.tolist(), block.amp):
            want = np.exp(-0.5j * gamma * energies)
            psi = sim.StateVector(n, np.ones(1 << n, dtype=np.complex128))
            sim.apply_diagonal_phase(psi, energies, gamma)
            assert np.array_equal(psi.amp, want)
            assert np.array_equal(row, want)


def test_block_kernels_match_single_states():
    rng = np.random.default_rng(38)
    n = 4
    energies = rng.normal(size=1 << n)
    thetas = rng.uniform(-4.0, 4.0, 5)
    block = sim.StateVector(n, np.stack([random_state(rng, n).amp for _ in thetas]))
    singles = [sim.StateVector(n, amp.copy()) for amp in block.amp]
    for q in range(n):
        sim.apply_rx(block, q, thetas)
        for psi, theta in zip(singles, thetas):
            sim.apply_rx(psi, q, float(theta))
    sim.apply_mixer(block, thetas)
    for psi, theta in zip(singles, thetas):
        sim.apply_mixer(psi, float(theta))
    got = sim.expectation_diagonal(block, energies)
    assert got.shape == (5,)
    for psi, row, e in zip(singles, block.amp, got):
        assert np.array_equal(psi.amp, row)
        assert e == sim.expectation_diagonal(psi, energies)
    plus = sim.init_plus(3, rows=2)
    assert plus.amp.shape == (2, 8) and np.array_equal(plus.amp[1], sim.init_plus(3).amp)
    # one shared angle: each block row gets the single-state arithmetic,
    # which dense.operator_of relies on
    theta = float(rng.uniform(-4.0, 4.0))
    shared = [
        lambda psi: sim.apply_rx(psi, 2, theta),
        lambda psi: sim.apply_mixer(psi, theta),
        lambda psi: sim.apply_rz(psi, 1, theta),
        lambda psi: sim.apply_cnot(psi, 3, 0),
        lambda psi: sim.apply_cnot(psi, 0, 2),
        lambda psi: sim.apply_rzz(psi, 3, 1, theta),
        lambda psi: sim.apply_rzk(psi, (0, 2, 3), theta),
        lambda psi: sim.apply_rzk_ladder(psi, (0, 1, 3), theta),
        lambda psi: sim.apply_rzk_ladder(psi, (2,), theta),
        lambda psi: sim.apply_diagonal_phase(psi, energies, theta),
    ]
    for kernel in shared:
        block = sim.StateVector(n, np.stack([random_state(rng, n).amp for _ in range(3)]))
        singles = [sim.StateVector(n, amp.copy()) for amp in block.amp]
        kernel(block)
        for psi, row in zip(singles, block.amp):
            kernel(psi)
            assert np.array_equal(psi.amp, row)


def test_expectation_diagonal():
    psi = basis(2, 3)
    energies = np.array([5.0, 1.0, -2.0, 4.0])
    assert sim.expectation_diagonal(psi, energies) == 4.0
    plus = sim.init_plus(2)
    assert abs(sim.expectation_diagonal(plus, energies) - 2.0) < 1e-12
    with pytest.raises(ValueError, match="energies length"):
        sim.apply_diagonal_phase(plus, energies[:3], 0.1)


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(35)
    psi = random_state(rng, 4)
    p = psi.probabilities()
    assert abs(p.sum() - 1.0) < 1e-12
    assert (p >= 0).all()


def test_sample_deterministic_and_consistent():
    rng = np.random.default_rng(36)
    psi = random_state(rng, 3)
    c1 = sim.sample(psi, 5000, 123)
    c2 = sim.sample(psi, 5000, 123)
    assert c1.shape == (8,)
    assert np.array_equal(c1, c2)
    assert c1.sum() == 5000
    c3 = sim.sample(psi, 5000, 124)
    assert not np.array_equal(c3, c1)  # different seed, different draw (overwhelmingly)
    with pytest.raises(ValueError, match="shots must be >= 1"):
        sim.sample(psi, 0, 123)


def test_sample_never_draws_zero_amplitude():
    psi = basis(3, 6)
    counts = sim.sample(psi, 1000, 0)
    assert counts.tolist() == [0, 0, 0, 0, 0, 0, 1000, 0]
