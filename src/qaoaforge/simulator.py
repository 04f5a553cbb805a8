"""Exact statevector engine.

Little-endian convention throughout: qubit q is bit q of the basis index,
so qubit 0 is the least-significant bit.  apply_mixer, apply_diagonal_phase
and apply_level_phase mutate the state in place through reshaped views of
the amplitude array, and take a block of B states, a C-contiguous (B, 2^n)
amplitude array, with one shared angle or one per row; expectation_diagonal
returns one value per row.  Each row gets exactly a single state's arithmetic.

apply_mixer is the mixer of every evolution: _rx's in-place update on
each qubit, tile by tile past TILE_QUBITS qubits.  This module holds only
the engine; the gate-level kernels of the reference circuit live in verify.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeCapError
from .ising import DIAGONAL_CAP

# The engine needs the 2^n energy table too, so it shares its ceiling.
STATEVECTOR_CAP = DIAGONAL_CAP

# apply_mixer's tile: 2^15 amplitudes (512 KiB) and its temporary fit a 2 MiB L2.
TILE_QUBITS = 15


@dataclass
class StateVector:
    """n qubits as 2^n complex amplitudes, basis index little-endian.

    amp is (2^n,) for one state or (B, 2^n) for a block of B states, as
    construction checks; sample reads one state.
    """

    n: int
    amp: np.ndarray

    def __post_init__(self):
        if self.amp.ndim not in (1, 2) or self.amp.shape[-1] != 1 << self.n:
            raise ValueError(f"amplitudes for {self.n} qubits must be (2^n,) or (B, 2^n), got {self.amp.shape}")

    def norm_error(self) -> float:
        """|sum of probabilities - 1|, of the worst row for a block; should stay within 1e-12."""
        return float(np.max(np.abs(np.sum(self.probabilities(), axis=-1) - 1.0)))

    def probabilities(self) -> np.ndarray:
        return self.amp.real ** 2 + self.amp.imag ** 2


def init_plus(n: int, rows: int | None = None) -> StateVector:
    """Uniform superposition, the ground state of the mixer -sum sigma_x.

    rows=B gives a (B, 2^n) block of B copies.
    """
    if not 1 <= n <= STATEVECTOR_CAP:
        raise SizeCapError(f"qubit count must be in [1, {STATEVECTOR_CAP}], got {n}")
    shape = 1 << n if rows is None else (rows, 1 << n)
    return StateVector(n, np.full(shape, 2.0 ** (-n / 2.0), dtype=np.complex128))


def _bit_view(amp: np.ndarray, q: int) -> np.ndarray:
    """The amplitudes with bit q on an axis of its own.

    Index z = block * 2^{q+1} + b * 2^q + low, so reshaping to
    (-1, 2, 2^q) exposes bit q as the middle axis without copying; a
    (B, 2^n) block reshapes row by row to (B, -1, 2, 2^q).
    """
    return amp.reshape(amp.shape[:-1] + (-1, 2, 1 << q))


def _rx_coefficients(theta):
    """cos(t/2) and -i sin(t/2): scalars for a float angle, columns for an array.

    An array holds one angle per row of a (B, 2^n) block and gives
    (B, 1, 1, 1) columns, formed with math.cos and math.sin row by row, so
    a block row sees the very coefficients a single state at the same angle
    would.  The cos column is complex, as a float scalar becomes in the
    product, so multiplying a block needs no buffered cast.
    """
    if not isinstance(theta, np.ndarray):
        return math.cos(theta / 2.0), -1j * math.sin(theta / 2.0)
    half = (theta / 2.0).tolist()
    c = np.array([math.cos(h) for h in half], dtype=np.complex128)
    s = np.array([-1j * math.sin(h) for h in half])
    return c[:, None, None, None], s[:, None, None, None]


def _rx(amp: np.ndarray, q: int, c, s) -> None:
    """R_x on qubit q, in place, with coefficients from _rx_coefficients.

    On the _bit_view v, v[..., ::-1, :] is v with the halves a0 and a1
    swapped, so t = s * v[..., ::-1, :] holds s*a1 over s*a0 and c*v + t is
    c*a0 + s*a1 over c*a1 + s*a0: the two-temporary update bit for bit
    (floating-point addition commutes), with one state-sized temporary.
    """
    v = _bit_view(amp, q)
    t = s * v[..., ::-1, :]
    np.multiply(c, v, out=v)
    v += t


def apply_mixer(psi: StateVector, beta) -> None:
    """R_x(beta) on every qubit: the mixer U_i(beta) of one layer.

    beta is a float, or an array of one angle per row of a (B, 2^n) block.
    The coefficients are formed once; each qubit gets _rx's update.
    Past TILE_QUBITS qubits a state is swept in cache-sized tiles: rows of
    2^TILE_QUBITS amplitudes for the qubits below it, then transposed column
    tiles, whose last axis is the row index, for the rest.  Each amplitude
    gets the untiled updates in qubit order, so every state is bit-identical.
    """
    c, s = _rx_coefficients(beta)
    if psi.n <= TILE_QUBITS:
        for q in range(psi.n):
            _rx(psi.amp, q, c, s)
        return
    for b, state in enumerate(psi.amp.reshape(-1, psi.amp.shape[-1])):
        cb, sb = (c[b], s[b]) if isinstance(beta, np.ndarray) else (c, s)
        rows = state.reshape(-1, 1 << TILE_QUBITS)
        for row in rows:
            for q in range(TILE_QUBITS):
                _rx(row, q, cb, sb)
        # a column tile holds a row's worth of amplitudes, more past 8 rows so runs stay 1/8 row long
        width = max(rows.shape[1] // rows.shape[0], rows.shape[1] >> 3)
        for c0 in range(0, rows.shape[1], width):
            for j in range(psi.n - TILE_QUBITS):
                _rx(rows[:, c0:c0 + width].T, j, cb, sb)


def _check_diagonal(psi: StateVector, energies: np.ndarray) -> None:
    if energies.shape != psi.amp.shape[-1:]:
        raise ValueError(f"energies length {energies.shape} != state size {psi.amp.shape[-1:]}")


def _phase(values: np.ndarray, gamma) -> np.ndarray:
    """e^{-i (gamma/2) values}: a vector, or one row per angle of a gamma array.

    The cos and sin of the one real argument fill one complex buffer's real
    and imaginary views: np.exp's values without its complex temporaries.
    """
    if isinstance(gamma, np.ndarray):
        gamma = gamma[:, None]
    arg = (-0.5 * gamma) * values
    phase = np.empty(arg.shape, dtype=np.complex128)
    np.cos(arg, out=phase.real)
    np.sin(arg, out=phase.imag)
    return phase


def apply_diagonal_phase(psi: StateVector, energies: np.ndarray, gamma) -> None:
    """amp[z] *= e^{-i (gamma/2) energies[z]}: one shot for a full diagonal layer.

    gamma is a float, or an array of one angle per row of a (B, 2^n) block.
    Equals the gate-level term-by-term sequence on the same Hamiltonian up
    to the global phase of any constant left out of the energy table.
    """
    _check_diagonal(psi, energies)
    psi.amp *= _phase(energies, gamma)


def apply_level_phase(psi: StateVector, levels: np.ndarray, index: np.ndarray, gamma) -> None:
    """apply_diagonal_phase of the diagonal levels[index], from the phases of its levels.

    cos and sin are taken of the L levels alone, a (B, L) table for a block,
    and gathered by the small-integer index, so each amplitude is multiplied
    by the very phase apply_diagonal_phase computes for its entry, bit for bit.
    """
    _check_diagonal(psi, index)
    psi.amp *= np.take(_phase(levels, gamma), index, axis=-1)


def expectation_diagonal(psi: StateVector, energies: np.ndarray):
    """<psi| diag(energies) |psi>, exact: a float, or one per row of a block.

    A block takes one dot product per row, since a single matrix-vector
    product may sum in another order than the single-state dot.
    """
    _check_diagonal(psi, energies)
    probs = psi.probabilities()
    if probs.ndim == 1:
        return float(probs @ energies)
    return np.array([row @ energies for row in probs])


def sample(psi: StateVector, shots: int, seed) -> np.ndarray:
    """Multinomial sample of basis indices from |amp|^2: the count of each index.

    seed may be an integer or a numpy Generator; integers go through
    numpy's default PCG64 generator, so counts are reproducible for a
    given package version.
    """
    if type(shots) is bool or not isinstance(shots, (int, np.integer)) or shots < 1:
        raise ValueError(f"shots must be >= 1 and an integer, got {shots!r}")
    if psi.amp.ndim != 1:
        raise ValueError(f"sample reads one state, got a block of shape {psi.amp.shape}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    probs = psi.probabilities()
    return rng.multinomial(shots, probs / probs.sum())
