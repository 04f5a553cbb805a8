import tracemalloc

import numpy as np
import pytest

from qaoaforge import dense, verify
from qaoaforge import simulator as sim
from qaoaforge.errors import SizeCapError
from qaoaforge.ising import diagonalize, parity_sign, qubo_to_spin
from qaoaforge.verify import random_qubo


def trotter_error_one_slice_at_a_time(h_f, p: int, steps_exact: int) -> float:
    """Per-p reference: the midpoint product rebuilt with one eigh per slice."""
    n = h_f.n
    dim = 1 << n
    h_i = dense.mixer_matrix(n)
    diag_f = diagonalize(h_f)
    w_i, v_i = np.linalg.eigh(h_i)
    dt = 1.0 / p
    u = np.eye(dim, dtype=np.complex128)
    for k in range(1, p + 1):
        t_k = k * dt
        mixer = (v_i * np.exp(-1j * (1.0 - t_k) * dt * w_i)) @ v_i.conj().T
        u = (mixer * np.exp(-1j * t_k * dt * diag_f)[None, :]) @ u
    h_f_dense = np.diag(diag_f)
    ref = np.eye(dim, dtype=np.complex128)
    d = 1.0 / steps_exact
    for j in range(1, steps_exact + 1):
        tm = (j - 0.5) * d
        w, v = np.linalg.eigh((1.0 - tm) * h_i + tm * h_f_dense)
        ref = ((v * np.exp(-1j * d * w)) @ v.conj().T) @ ref
    return float(np.linalg.norm(u - ref, ord=2))


def operator_column_by_column(apply_fn, n: int) -> np.ndarray:
    """Reference: one kernel run per basis state |z>, stored as column z."""
    dim = 1 << n
    u = np.zeros((dim, dim), dtype=np.complex128)
    for z in range(dim):
        amp = np.zeros(dim, dtype=np.complex128)
        amp[z] = 1.0
        psi = sim.StateVector(n, amp)
        apply_fn(psi)
        u[:, z] = psi.amp
    return u


@pytest.mark.parametrize("n", range(1, 8))
def test_operator_of_matches_column_by_column(n):
    rng = np.random.default_rng(100 + n)
    theta = float(rng.uniform(-2 * np.pi, 2 * np.pi))
    qs = tuple(sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist()))
    q = int(rng.integers(0, n))

    def rx_then_rz(psi):
        # not a symmetric matrix, so a transposed operator would show
        verify.apply_rx(psi, q, theta)
        verify.apply_rz(psi, q, 0.5 * theta)

    kernels = [
        rx_then_rz,
        lambda psi: verify.apply_rx(psi, q, theta),
        lambda psi: verify.apply_rz(psi, q, theta),
        lambda psi: sim.apply_diagonal_phase(psi, parity_sign(n, qs), theta),
        lambda psi: verify.apply_rzk_ladder(psi, qs, theta),
    ]
    if n >= 2:
        i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
        kernels += [
            lambda psi: verify.apply_cnot(psi, i, j),
            lambda psi: sim.apply_diagonal_phase(psi, parity_sign(n, (i, j)), theta),
        ]
    for kernel in kernels:
        assert np.array_equal(dense.operator_of(kernel, n), operator_column_by_column(kernel, n))
    with pytest.raises(SizeCapError):
        dense.operator_of(kernels[0], dense.DENSE_CAP + 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_trotter_compare_matches_per_p_loop(n):
    h = qubo_to_spin(random_qubo(np.random.default_rng(n), n))
    ps = (1, 2, 4, 8)
    expected = [trotter_error_one_slice_at_a_time(h, p, 256) for p in ps]
    assert dense.trotter_compare(h, ps, steps_exact=256) == expected


@pytest.mark.parametrize("d", [2, 8, 32])
def test_stacked_expm_hermitian_matches_per_matrix(d):
    rng = np.random.default_rng(d)
    m = rng.normal(size=(6, d, d)) + 1j * rng.normal(size=(6, d, d))
    m = m + np.swapaxes(m, -1, -2).conj()
    stacked = dense.expm_hermitian(m, 0.37)
    for k in range(len(m)):
        assert np.array_equal(stacked[k], dense.expm_hermitian(m[k], 0.37))


@pytest.mark.parametrize("ps", [(), (0, 4), (-1,), (4, 17)])
def test_trotter_compare_rejects_bad_depths(ps, monkeypatch):
    def no_matrices(n):
        raise AssertionError("a matrix was built before the depths were checked")

    monkeypatch.setattr(dense, "mixer_matrix", no_matrices)
    h = qubo_to_spin(random_qubo(np.random.default_rng(0), 3))
    with pytest.raises(ValueError):
        dense.trotter_compare(h, ps, steps_exact=16)


def test_trotter_compare_memory_is_bounded():
    # the first criterion-07 Hamiltonian; all 4096 slices in one stack peak near 20 MiB
    h = qubo_to_spin(random_qubo(np.random.default_rng(0), 3))
    tracemalloc.start()
    try:
        dense.trotter_compare(h, (4, 8, 16, 32, 64))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
