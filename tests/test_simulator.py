import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from qaoaforge.errors import SizeCapError
from qaoaforge.ising import parity_sign
from qaoaforge import dense, verify
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
    verify.apply_rx(psi, 0, 0.8)
    assert abs(psi.amp[0] - math.cos(0.4)) < 1e-15
    assert abs(psi.amp[1] - (-1j * math.sin(0.4))) < 1e-15


def test_rx_acts_on_named_qubit():
    psi = basis(2, 0)
    verify.apply_rx(psi, 1, math.pi)  # |00> -> -i|10>: flips bit 1, index 2
    assert abs(psi.amp[2] + 1j) < 1e-12
    assert abs(psi.amp[0]) < 1e-12


def test_rx_coefficient_columns_are_math_scalars():
    # a block row's R_x coefficients are the float angle's, bit for bit and sign of zero
    # included, only because numpy's float64 cos and sin equal math's
    rng = np.random.default_rng(36)
    magnitudes = np.concatenate([[5e-324, 1e12], 10.0 ** rng.uniform(-323.3, 12.0, 100_000)])
    angles = np.concatenate([[0.0, -0.0, math.pi, -math.pi], magnitudes * rng.choice([-1.0, 1.0], magnitudes.size)])
    c, s = sim._rx_coefficients(angles)
    columns = np.stack([c.ravel(), s.ravel()], axis=1)
    scalars = np.array([sim._rx_coefficients(t) for t in angles.tolist()], dtype=np.complex128)
    differ = (columns.view(np.uint64) != scalars.view(np.uint64)).any(axis=1)
    assert not differ.any(), (f"np.cos/np.sin differ from math.cos/math.sin at {differ.sum()} angles, "
                              f"first {angles[differ][:5].tolist()}")


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
    # n = 12 on one-amplitude-wide column tiles, up to 512 tile jobs per sweep
    # on one thread and on the pool
    rng = np.random.default_rng(39)
    for tile, workers in ((sim.TILE_QUBITS, sim._WORKERS), (3, 1), (3, max(2, sim._WORKERS))):
        monkeypatch.setattr(sim, "TILE_QUBITS", tile)
        monkeypatch.setattr(sim, "_WORKERS", workers)
        for n in range(1, 13):
            for rows, per_row in ((None, False), (1, True), (3, False), (3, True)):
                shape = 1 << n if rows is None else (rows, 1 << n)
                amp = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                beta = rng.uniform(-7.0, 7.0, rows) if per_row else float(rng.uniform(-7.0, 7.0))
                psi = sim.StateVector(n, amp.copy())
                sim.apply_mixer(psi, beta)
                two_temporary_mixer(amp, beta)
                assert np.array_equal(psi.amp, amp), (tile, workers, n, rows, per_row)


def test_layer_kernels_equal_phase_then_mixer(monkeypatch):
    # a phase kernel given beta folds the mixer into its sweep: the amplitudes of the
    # phase call and then apply_mixer, bit for bit, and of the untiled phase and then the
    # two-temporary mixer, untiled, past 3-qubit tiles and past TILE_QUBITS, for a state,
    # a one-row block and a block with one angle pair per row
    rng = np.random.default_rng(41)
    levels = np.arange(41, dtype=float) - 20
    for tile, n in ((sim.TILE_QUBITS, 5), (3, 5), (3, 9), (sim.TILE_QUBITS, 16), (sim.TILE_QUBITS, 17)):
        monkeypatch.setattr(sim, "TILE_QUBITS", tile)
        index = rng.integers(0, len(levels), 1 << n).astype(np.uint8)
        for rows in (None, 1, 2):
            shape = 1 << n if rows is None else (rows, 1 << n)
            amp = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            gamma, beta = rng.uniform(-7.0, 7.0, (2, rows or 1))
            if rows is None:
                gamma, beta = float(gamma[0]), float(beta[0])
            for phase, diagonal in ((sim.apply_diagonal_phase, (levels[index],)),
                                    (sim.apply_level_phase, (levels, index))):
                fused, apart = sim.StateVector(n, amp.copy()), sim.StateVector(n, amp.copy())
                phase(fused, *diagonal, gamma, beta)
                phase(apart, *diagonal, gamma)
                sim.apply_mixer(apart, beta)
                assert np.array_equal(fused.amp, apart.amp), (tile, n, rows, phase.__name__)
            want = amp.copy()
            want *= sim._phase(levels[index], gamma)  # in place, as the kernels multiply
            two_temporary_mixer(want, beta)
            assert np.array_equal(fused.amp, want), (tile, n, rows)


def test_tiles_run_every_job_once_and_raise_a_jobs_error(monkeypatch):
    # each index is taken by exactly one thread; an error in a job, on the calling
    # thread or on a pool thread, reaches the caller once every other job is done
    monkeypatch.setattr(sim, "_WORKERS", max(2, sim._WORKERS))
    ran = []
    sim._tiles(ran.append, 64)
    assert sorted(ran) == list(range(64))
    for failing in (lambda: threading.current_thread() is threading.main_thread(),
                    lambda: threading.current_thread() is not threading.main_thread()):
        def job(i):
            time.sleep(0.001)  # so that a pool thread takes some of the jobs
            if failing():
                raise MemoryError(f"tile {i}")
            ran.append(i)
        ran.clear()
        with pytest.raises(MemoryError, match="tile"):
            sim._tiles(job, 64)
        assert len(ran) == len(set(ran)) >= 64 - (sim._WORKERS - 1) - 1


def test_mixer_matches_dense_kronecker_product(monkeypatch):
    rng = np.random.default_rng(40)
    for tile in (sim.TILE_QUBITS, 3):
        monkeypatch.setattr(sim, "TILE_QUBITS", tile)
        for n in range(1, 7):
            beta = float(rng.uniform(-7.0, 7.0))
            got = dense.operator_of(lambda psi: sim.apply_mixer(psi, beta), n)
            want = dense.kron_factors([dense.rx_matrix(beta)] * n)
            assert np.abs(got - want).max() < 1e-13, (tile, n)


def test_tiles_under_contention(monkeypatch):
    # more pool threads than cores and a 1 us switch interval: every job runs exactly
    # once and the many-tile mixer keeps its bits, within a time bound
    monkeypatch.setattr(sim, "_pool", None)
    monkeypatch.setattr(sim, "_WORKERS", 2 * sim._WORKERS + 2)
    monkeypatch.setattr(sim, "TILE_QUBITS", 3)
    rng = np.random.default_rng(43)
    amp = rng.normal(size=(2, 1 << 10)) + 1j * rng.normal(size=(2, 1 << 10))
    psi, beta = sim.StateVector(10, amp.copy()), rng.uniform(-7.0, 7.0, 2)
    ran = []

    def work():
        sim._tiles(ran.append, 5000)
        sim.apply_mixer(psi, beta)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    assert sorted(ran) == list(range(5000))
    two_temporary_mixer(amp, beta)
    assert np.array_equal(psi.amp, amp)


def test_tiled_mixer_at_17_qubits_keeps_one_tile_temporary(monkeypatch):
    n = 17
    assert n > sim.TILE_QUBITS
    rng = np.random.default_rng(42)
    for workers in sorted({1, sim._WORKERS}):
        monkeypatch.setattr(sim, "_WORKERS", workers)
        amp = rng.normal(size=2 << n).view(np.complex128)
        psi = sim.StateVector(n, amp.copy())
        tracemalloc.start()
        sim.apply_mixer(psi, 0.83)
        extra = tracemalloc.get_traced_memory()[1] / amp.nbytes
        tracemalloc.stop()
        two_temporary_mixer(amp, 0.83)
        assert np.array_equal(psi.amp, amp)
        # per thread, one 2^TILE_QUBITS tile's temporary (a quarter state), plus the
        # buffer numpy's ufunc loop takes for the reversed view in _rx (8192
        # amplitudes); the untiled update held a whole state and the same buffer
        tile = ((1 << sim.TILE_QUBITS) + np.getbufsize()) / (1 << n)
        threads = min(workers, 1 << (n - sim.TILE_QUBITS))
        assert extra <= threads * tile + 0.01, (workers, extra, tile)


def test_rz_phases():
    theta = 1.3
    psi = sim.init_plus(1)
    verify.apply_rz(psi, 0, theta)
    assert abs(psi.amp[0] - np.exp(-1j * theta / 2) / math.sqrt(2)) < 1e-15
    assert abs(psi.amp[1] - np.exp(+1j * theta / 2) / math.sqrt(2)) < 1e-15


def test_cnot_truth_table():
    # control 0, target 1: basis order z = (bit1 bit0)
    for z_in, z_out in [(0, 0), (1, 3), (2, 2), (3, 1)]:
        psi = basis(2, z_in)
        verify.apply_cnot(psi, 0, 1)
        assert abs(psi.amp[z_out] - 1.0) < 1e-15
    for z_in, z_out in [(0, 0), (1, 1), (2, 3), (3, 2)]:
        psi = basis(2, z_in)
        verify.apply_cnot(psi, 1, 0)
        assert abs(psi.amp[z_out] - 1.0) < 1e-15
    psi = basis(2, 0)
    with pytest.raises(ValueError):
        verify.apply_cnot(psi, 0, 0)


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
                verify.apply_cnot(psi, c, t)
                assert np.array_equal(psi.amp, want)


def test_rzz_diagonal_phases():
    theta = 0.9
    psi = sim.init_plus(2)
    sim.apply_diagonal_phase(psi, parity_sign(2, (0, 1)), theta)
    em, ep = np.exp(-1j * theta / 2) / 2, np.exp(1j * theta / 2) / 2
    assert np.allclose(psi.amp, [em, ep, ep, em])


def test_swap_check_fails_on_a_kernel_that_is_not_swap_invariant(monkeypatch):
    # an extra phase on qubit 0 alone keeps the operator diagonal but breaks swap invariance
    kernel = sim.apply_diagonal_phase

    def lopsided(psi, signs, theta):
        kernel(psi, signs, theta)
        kernel(psi, parity_sign(psi.n, (0,)), 0.8)

    assert verify.check_rzz_swap().passed
    monkeypatch.setattr(sim, "apply_diagonal_phase", lopsided)
    r = verify.check_rzz_swap()
    assert not r.passed and r.name == "rzz_swap_invariance", r.detail


def test_rzk_parity_sign():
    rng = np.random.default_rng(31)
    n, theta = 4, 1.7
    psi = random_state(rng, n)
    before = psi.amp.copy()
    sim.apply_diagonal_phase(psi, parity_sign(n, (0, 2, 3)), theta)
    mask = 0b1101
    for z in range(1 << n):
        parity = bin(z & mask).count("1") % 2
        phase = np.exp(-1j * (theta / 2) * (1 - 2 * parity))
        assert abs(psi.amp[z] - phase * before[z]) < 1e-12


def test_rzk_ladder_matches_direct():
    rng = np.random.default_rng(32)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n + 1))
        qubits = tuple(sorted(rng.choice(n, size=k, replace=False)))
        theta = float(rng.uniform(-6, 6))
        a = random_state(rng, n)
        b = sim.StateVector(n, a.amp.copy())
        sim.apply_diagonal_phase(a, parity_sign(n, qubits), theta)
        verify.apply_rzk_ladder(b, qubits, theta)
        assert np.abs(a.amp - b.amp).max() < 1e-12


def test_qubit_index_validation():
    psi = sim.init_plus(2)
    with pytest.raises(ValueError):
        verify.apply_rx(psi, 2, 0.1)
    for qubits in ((0, 0), (), (1, 1), (1, 0), (0, 2)):
        with pytest.raises(ValueError):
            verify.apply_rzk_ladder(psi, qubits, 0.1)


def test_norm_preserved_random_circuit():
    rng = np.random.default_rng(33)
    psi = random_state(rng, 5)
    for _ in range(40):
        gate = rng.integers(0, 4)
        theta = float(rng.uniform(-6, 6))
        q = int(rng.integers(0, 5))
        if gate == 0:
            verify.apply_rx(psi, q, theta)
        elif gate == 1:
            verify.apply_rz(psi, q, theta)
        elif gate == 2:
            r = int((q + 1 + rng.integers(0, 4)) % 5)
            verify.apply_cnot(psi, q, r)
        else:
            qs = tuple(sorted(rng.choice(5, size=3, replace=False)))
            verify.apply_rzk_ladder(psi, qs, theta)
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


def test_level_phase_is_bitwise_direct_phase():
    # levels[index] as the diagonal: the same amplitudes as apply_diagonal_phase,
    # for a state and for a block with one angle per row, with 1- and 2-byte indices
    rng = np.random.default_rng(39)
    for n, count, dtype in ((1, 3, np.uint8), (6, 9, np.uint8), (10, 301, np.uint16), (16, 41, np.uint8)):
        levels = np.arange(count, dtype=float) - count // 2
        index = rng.integers(0, count, 1 << n).astype(dtype)
        gammas = rng.uniform(-7.0, 7.0, 3)
        a = sim.StateVector(n, np.stack([random_state(rng, n).amp for _ in gammas]))
        b = sim.StateVector(n, a.amp.copy())
        sim.apply_diagonal_phase(a, levels[index], gammas)
        sim.apply_level_phase(b, levels, index, gammas)
        assert np.array_equal(a.amp, b.amp)
        for gamma in gammas.tolist():
            a, b = random_state(rng, n), random_state(rng, n)
            b.amp[:] = a.amp
            sim.apply_diagonal_phase(a, levels[index], gamma)
            sim.apply_level_phase(b, levels, index, gamma)
            assert np.array_equal(a.amp, b.amp)
    with pytest.raises(ValueError, match="energies length"):
        sim.apply_level_phase(sim.init_plus(2), levels, index[:3], 0.1)


def test_block_kernels_match_single_states():
    rng = np.random.default_rng(38)
    n = 4
    energies = rng.normal(size=1 << n)
    thetas = rng.uniform(-4.0, 4.0, 5)
    block = sim.StateVector(n, np.stack([random_state(rng, n).amp for _ in thetas]))
    singles = [sim.StateVector(n, amp.copy()) for amp in block.amp]
    for q in range(n):
        verify.apply_rx(block, q, thetas)
        for psi, theta in zip(singles, thetas):
            verify.apply_rx(psi, q, float(theta))
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
        lambda psi: verify.apply_rx(psi, 2, theta),
        lambda psi: sim.apply_mixer(psi, theta),
        lambda psi: verify.apply_rz(psi, 1, theta),
        lambda psi: verify.apply_cnot(psi, 3, 0),
        lambda psi: verify.apply_cnot(psi, 0, 2),
        lambda psi: sim.apply_diagonal_phase(psi, parity_sign(n, (3, 1)), theta),
        lambda psi: sim.apply_diagonal_phase(psi, parity_sign(n, (0, 2, 3)), theta),
        lambda psi: verify.apply_rzk_ladder(psi, (0, 1, 3), theta),
        lambda psi: verify.apply_rzk_ladder(psi, (2,), theta),
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


def test_sample_refuses_fractional_shots():
    # numpy would draw 2 shots for 2.5 while an estimate divides by 2.5
    psi = random_state(np.random.default_rng(37), 2)
    for bad in (2.5, 3.0, True, "3"):
        with pytest.raises(ValueError, match="shots must be >= 1 and an integer, got "):
            sim.sample(psi, bad, 0)
    assert sim.sample(psi, np.int64(3), 0).sum() == 3


def test_state_vector_is_the_shape_it_claims():
    # 8 amplitudes called 2 qubits would have the mixer rotate qubits 0 and 1 only
    for n, shape in ((2, (8,)), (3, (4,)), (2, (2, 8)), (2, (2, 2, 4)), (2, ())):
        with pytest.raises(ValueError, match=rf"amplitudes for {n} qubits must be"):
            sim.StateVector(n, np.zeros(shape, dtype=np.complex128))
    assert sim.StateVector(2, np.zeros((3, 4), dtype=np.complex128)).amp.shape == (3, 4)


def test_sample_reads_one_state():
    # a block normalized as one distribution gives each row's last index half the shots
    with pytest.raises(ValueError, match=r"sample reads one state, got a block of shape \(2, 4\)"):
        sim.sample(sim.init_plus(2, rows=2), 1000, 0)


def test_norm_error_reads_the_worst_row():
    block = sim.init_plus(2, rows=3)
    assert block.norm_error() < 1e-15
    block.amp[1] *= 2.0
    assert block.norm_error() == 3.0
    psi = random_state(np.random.default_rng(5), 4)
    assert psi.norm_error() == abs(float(np.sum(psi.probabilities())) - 1.0)


def test_sample_never_draws_zero_amplitude():
    psi = basis(3, 6)
    counts = sim.sample(psi, 1000, 0)
    assert counts.tolist() == [0, 0, 0, 0, 0, 0, 1000, 0]
