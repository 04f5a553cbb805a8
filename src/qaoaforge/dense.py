"""Dense-matrix references, independent of the statevector kernels.

These build unitaries and Hamiltonians as explicit matrices via Kronecker
products and Hermitian eigendecompositions, so they serve as oracles for
the fast bit-twiddling paths.  Capped at n <= 8 (matrices of size 2^n).
"""
from __future__ import annotations

import numpy as np

from .errors import SizeCapError
from .ising import SpinHamiltonian, diagonalize
from .simulator import basis_state

DENSE_CAP = 8

I2 = np.eye(2, dtype=np.complex128)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def rx_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]])


def rz_matrix(theta: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def _check_n(n: int):
    if not 1 <= n <= DENSE_CAP:
        raise SizeCapError(f"dense oracle needs 1 <= n <= {DENSE_CAP}, got {n}")


def kron_factors(factors) -> np.ndarray:
    """Kronecker product with factors listed from qubit n-1 down to qubit 0.

    Little-endian translation: the last factor addresses the
    least-significant bit, so factor lists are built highest qubit first.
    """
    out = np.array([[1.0 + 0.0j]])
    for f in factors:
        out = np.kron(out, f)
    return out


def embed_single(u: np.ndarray, q: int, n: int) -> np.ndarray:
    """Lift a one-qubit matrix to n qubits acting on qubit q."""
    _check_n(n)
    return kron_factors([u if k == q else I2 for k in range(n - 1, -1, -1)])


def z_product_matrix(qubits, n: int) -> np.ndarray:
    """Tensor product of sigma_z on the listed qubits, identity elsewhere."""
    _check_n(n)
    qs = set(qubits)
    return kron_factors([SIGMA_Z if k in qs else I2 for k in range(n - 1, -1, -1)])


def mixer_matrix(n: int) -> np.ndarray:
    """The mixer Hamiltonian -sum_i sigma_x^(i) as a dense matrix."""
    _check_n(n)
    h = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    for q in range(n):
        h -= embed_single(SIGMA_X, q, n)
    return h


def hamiltonian_matrix(h: SpinHamiltonian) -> np.ndarray:
    """Dense matrix of a spin Hamiltonian, sum of coef * Z-product (constant excluded)."""
    _check_n(h.n)
    out = np.zeros((1 << h.n, 1 << h.n), dtype=np.complex128)
    for idx, coef in h.terms.items():
        out += coef * z_product_matrix(idx, h.n)
    return out


def expm_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    """e^{-i t H} for Hermitian H via eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * t * w)) @ v.conj().T


def operator_of(apply_fn, n: int) -> np.ndarray:
    """Dense matrix of a statevector-mutating function, column by column."""
    _check_n(n)
    dim = 1 << n
    u = np.zeros((dim, dim), dtype=np.complex128)
    for z in range(dim):
        psi = basis_state(n, z)
        apply_fn(psi)
        u[:, z] = psi.amp
    return u


def trotter_compare(h_f: SpinHamiltonian, p: int, steps_exact: int = 4096) -> float:
    """Spectral-norm error of the first-order split-step product.

    The product runs k = 1..p with t_k = k/p, later slices applied on the
    left: each slice is e^{-i(1-t_k) dt H_i} e^{-i t_k dt H_f}, the linear
    interpolation H(t) = (1-t) H_i + t H_f sampled on right endpoints.  The
    reference evolution over [0, 1] is a midpoint product with steps_exact
    fine slices of the exact exponential of H(t).  Returns ||U_p - U_ref||_2.
    """
    _check_n(h_f.n)
    if p < 1:
        raise ValueError("p must be >= 1")
    if steps_exact < p:
        raise ValueError("steps_exact must be >= p")
    n = h_f.n
    dim = 1 << n
    h_i = mixer_matrix(n)
    diag_f = diagonalize(h_f)

    # mixer eigensystem once; slices of e^{-i a H_i} reuse it
    w_i, v_i = np.linalg.eigh(h_i)

    def mixer_exp(a: float) -> np.ndarray:
        return (v_i * np.exp(-1j * a * w_i)) @ v_i.conj().T

    dt = 1.0 / p
    u = np.eye(dim, dtype=np.complex128)
    for k in range(1, p + 1):
        t_k = k * dt
        slice_k = mixer_exp((1.0 - t_k) * dt) * np.exp(-1j * t_k * dt * diag_f)[None, :]
        u = slice_k @ u

    h_f_dense = np.diag(diag_f)
    ref = np.eye(dim, dtype=np.complex128)
    d = 1.0 / steps_exact
    for j in range(1, steps_exact + 1):
        tm = (j - 0.5) * d
        ref = expm_hermitian((1.0 - tm) * h_i + tm * h_f_dense, d) @ ref
    return float(np.linalg.norm(u - ref, ord=2))
