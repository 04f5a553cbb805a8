"""Exact statevector engine.

Little-endian convention throughout: qubit q is bit q of the basis index,
so qubit 0 is the least-significant bit.  All gate kernels mutate the state
in place through reshaped views of the amplitude array.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeCapError
from .ising import DIAGONAL_CAP, parity_sign

# The engine needs the 2^n energy table too, so it shares its ceiling.
STATEVECTOR_CAP = DIAGONAL_CAP


@dataclass
class StateVector:
    """n qubits as 2^n complex amplitudes, basis index little-endian."""

    n: int
    amp: np.ndarray

    def norm_error(self) -> float:
        """|sum of probabilities - 1|, should stay within 1e-12."""
        return abs(float(np.sum(self.amp.real ** 2 + self.amp.imag ** 2)) - 1.0)

    def probabilities(self) -> np.ndarray:
        return self.amp.real ** 2 + self.amp.imag ** 2


def init_plus(n: int) -> StateVector:
    """Uniform superposition, the ground state of the mixer -sum sigma_x."""
    if not 1 <= n <= STATEVECTOR_CAP:
        raise SizeCapError(f"qubit count must be in [1, {STATEVECTOR_CAP}], got {n}")
    amp = np.full(1 << n, 2.0 ** (-n / 2.0), dtype=np.complex128)
    return StateVector(n, amp)


def basis_state(n: int, z: int) -> StateVector:
    """Computational basis state |z>."""
    if not 1 <= n <= STATEVECTOR_CAP:
        raise SizeCapError(f"qubit count must be in [1, {STATEVECTOR_CAP}], got {n}")
    if not 0 <= z < (1 << n):
        raise ValueError(f"basis index {z} out of range for n={n}")
    amp = np.zeros(1 << n, dtype=np.complex128)
    amp[z] = 1.0
    return StateVector(n, amp)


def _check_qubit(psi: StateVector, q: int):
    if not 0 <= q < psi.n:
        raise ValueError(f"qubit index {q} out of range for n={psi.n}")


def _halves(psi: StateVector, q: int):
    """Views of the amplitudes with bit q clear / set.

    Index z = block * 2^{q+1} + b * 2^q + low, so reshaping to
    (-1, 2, 2^q) exposes bit q as the middle axis without copying.
    """
    step = 1 << q
    v = psi.amp.reshape(-1, 2, step)
    return v[:, 0, :], v[:, 1, :]


def apply_rx(psi: StateVector, q: int, theta: float) -> None:
    """cos(t/2) I - i sin(t/2) sigma_x on qubit q."""
    _check_qubit(psi, q)
    c = math.cos(theta / 2.0)
    s = -1j * math.sin(theta / 2.0)
    a0, a1 = _halves(psi, q)
    new0 = c * a0 + s * a1
    new1 = s * a0 + c * a1
    a0[:] = new0
    a1[:] = new1


def apply_rz(psi: StateVector, q: int, theta: float) -> None:
    """Phase e^{-i t/2} where bit q is 0, e^{+i t/2} where it is 1."""
    _check_qubit(psi, q)
    a0, a1 = _halves(psi, q)
    a0 *= np.exp(-0.5j * theta)
    a1 *= np.exp(0.5j * theta)


def apply_cnot(psi: StateVector, control: int, target: int) -> None:
    """Flip the target bit on the half of the state where the control bit is 1."""
    _check_qubit(psi, control)
    _check_qubit(psi, target)
    if control == target:
        raise ValueError("control and target must differ")
    v = psi.amp.reshape([2] * psi.n)
    # C-order reshape puts qubit q on axis n-1-q
    b = np.moveaxis(v, (psi.n - 1 - control, psi.n - 1 - target), (0, 1))
    tmp = b[1, 0].copy()
    b[1, 0] = b[1, 1]
    b[1, 1] = tmp


def apply_rzz(psi: StateVector, i: int, j: int, theta: float) -> None:
    """diag{e^{-it/2}, e^{+it/2}, e^{+it/2}, e^{-it/2}} on the (i, j) subspace.

    The pair case of apply_rzk, so it is invariant under swapping i and j.
    """
    if i == j:
        raise ValueError("qubit indices must differ")
    apply_rzk(psi, sorted((i, j)), theta)


def _check_tuple(psi: StateVector, qubits) -> tuple[int, ...]:
    qs = tuple(int(q) for q in qubits)
    if len(qs) < 1:
        raise ValueError("need at least one qubit")
    if list(qs) != sorted(set(qs)):
        raise ValueError(f"qubit tuple must be strictly increasing: {qs}")
    for q in qs:
        _check_qubit(psi, q)
    return qs


def apply_rzk(psi: StateVector, qubits, theta: float) -> None:
    """Rotation generated by a product of sigma_z on the given qubits.

    Phase e^{-i(t/2) s} where s = (-1)^(number of set bits among qubits),
    i.e. the sign is fixed by the Hamming weight of the selected bits.
    """
    qs = _check_tuple(psi, qubits)
    apply_diagonal_phase(psi, parity_sign(psi.n, qs), theta)


def apply_rzk_ladder(psi: StateVector, qubits, theta: float) -> None:
    """Same rotation as apply_rzk, built from gates.

    CNOTs accumulate the parity of all selected bits onto the last (highest)
    qubit of the tuple, a single R_z applies the phase there, and the ladder
    is undone in reverse.  Must agree with apply_rzk to rounding.
    """
    qs = _check_tuple(psi, qubits)
    if len(qs) == 1:
        apply_rz(psi, qs[0], theta)
        return
    last = qs[-1]
    for q in qs[:-1]:
        apply_cnot(psi, q, last)
    apply_rz(psi, last, theta)
    for q in reversed(qs[:-1]):
        apply_cnot(psi, q, last)


def apply_diagonal_phase(psi: StateVector, energies: np.ndarray, gamma: float) -> None:
    """amp[z] *= e^{-i (gamma/2) energies[z]}: one shot for a full diagonal layer.

    Equals the gate-level term-by-term sequence on the same Hamiltonian up
    to the global phase of any constant left out of the energy table.
    """
    if energies.shape != psi.amp.shape:
        raise ValueError(f"energies length {energies.shape} != state size {psi.amp.shape}")
    psi.amp *= np.exp(-0.5j * gamma * energies)


def expectation_diagonal(psi: StateVector, energies: np.ndarray) -> float:
    """<psi| diag(energies) |psi>, exact."""
    if energies.shape != psi.amp.shape:
        raise ValueError(f"energies length {energies.shape} != state size {psi.amp.shape}")
    probs = psi.amp.real ** 2 + psi.amp.imag ** 2
    return float(probs @ energies)


def sample(psi: StateVector, shots: int, seed) -> dict[int, int]:
    """Multinomial sample of basis indices from |amp|^2.

    seed may be an integer or a numpy Generator; integers go through
    numpy's default PCG64 generator, so histograms are reproducible for a
    given package version.  Returns only outcomes with nonzero counts.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    probs = psi.probabilities()
    probs = probs / probs.sum()
    counts = rng.multinomial(shots, probs)
    hot = np.nonzero(counts)[0]
    return {int(z): int(counts[z]) for z in hot}
