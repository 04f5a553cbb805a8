"""Dense-matrix references, independent of the statevector kernels.

These build unitaries and Hamiltonians as explicit matrices via Kronecker
products and Hermitian eigendecompositions, so they serve as oracles for
the fast bit-twiddling paths.  Capped at n <= 8 (matrices of size 2^n).
"""
from __future__ import annotations

import numpy as np

from .errors import SizeCapError
from .ising import SpinHamiltonian, diagonalize
from .model import brief
from .simulator import StateVector

DENSE_CAP = 8
# bytes per stack of reference slices in trotter_compare
REFERENCE_CHUNK_BYTES = 2**17

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
        raise SizeCapError(f"dense oracle needs 1 <= n <= {DENSE_CAP}, got {brief(n)}")


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
    """e^{-i t H} for Hermitian H via eigendecomposition.

    H may be a stack (..., d, d); each matrix gets its own propagator.
    """
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * t * w)[..., None, :]) @ np.swapaxes(v, -1, -2).conj()


def operator_of(apply_fn, n: int) -> np.ndarray:
    """Dense matrix of a statevector-mutating function, from one block run.

    Row z of the block starts as |z> and ends as U|z>, column z of U.
    """
    _check_n(n)
    psi = StateVector(n, np.eye(1 << n, dtype=np.complex128))
    apply_fn(psi)
    return psi.amp.T


def trotter_compare(
    h_f: SpinHamiltonian, ps: tuple[int, ...], steps_exact: int = 4096
) -> list[float]:
    """Spectral-norm errors of the first-order split-step product, one per p in ps.

    The product runs k = 1..p with t_k = k/p, later slices applied on the
    left: each slice is e^{-i(1-t_k) dt H_i} e^{-i t_k dt H_f}, the linear
    interpolation H(t) = (1-t) H_i + t H_f sampled on right endpoints.  The
    reference evolution over [0, 1] is a midpoint product with steps_exact
    fine slices of the exact exponential of H(t); it does not depend on p,
    so it is built once per call.  Returns ||U_p - U_ref||_2 for each p.

    The reference slices are exponentiated as stacks of at most
    max(1, REFERENCE_CHUNK_BYTES // (16 * dim^2)) matrices, 128 at n = 3
    and 1 at n = 8: one stacked eigh replaces many small calls, and the
    cap keeps each stack near 128 KiB, where all 4096 slices at once raise
    the peak by about 20 MiB at n = 3.  Slices multiply into the reference
    in order, so the result equals the one-slice-at-a-time product.
    """
    _check_n(h_f.n)
    if not ps:
        raise ValueError("ps must name at least one depth")
    if min(ps) < 1:
        raise ValueError("every p must be >= 1")
    if max(ps) > steps_exact:
        raise ValueError("steps_exact must be >= every p")
    n = h_f.n
    dim = 1 << n
    h_i = mixer_matrix(n)
    diag_f = diagonalize(h_f)

    # mixer eigensystem once; slices of e^{-i a H_i} reuse it
    w_i, v_i = np.linalg.eigh(h_i)

    def mixer_exp(a: float) -> np.ndarray:
        return (v_i * np.exp(-1j * a * w_i)) @ v_i.conj().T

    h_f_dense = np.diag(diag_f)
    ref = np.eye(dim, dtype=np.complex128)
    d = 1.0 / steps_exact
    chunk = max(1, REFERENCE_CHUNK_BYTES // (16 * dim * dim))
    for start in range(1, steps_exact + 1, chunk):
        tm = ((np.arange(start, min(start + chunk, steps_exact + 1)) - 0.5) * d)[:, None, None]
        for e in expm_hermitian((1.0 - tm) * h_i + tm * h_f_dense, d):
            ref = e @ ref

    errs = []
    for p in ps:
        dt = 1.0 / p
        u = np.eye(dim, dtype=np.complex128)
        for k in range(1, p + 1):
            t_k = k * dt
            slice_k = mixer_exp((1.0 - t_k) * dt) * np.exp(-1j * t_k * dt * diag_f)[None, :]
            u = slice_k @ u
        errs.append(float(np.linalg.norm(u - ref, ord=2)))
    return errs
