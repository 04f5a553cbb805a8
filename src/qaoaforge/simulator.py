"""Exact statevector engine.

Little-endian convention throughout: qubit q is bit q of the basis index,
so qubit 0 is the least-significant bit.  apply_mixer, apply_diagonal_phase
and apply_level_phase mutate the state in place through reshaped views of
the amplitude array, and take a block of B states, a C-contiguous (B, 2^n)
amplitude array, with one shared angle or one per row; expectation_diagonal
returns one value per row.  Each row gets exactly a single state's arithmetic.

apply_mixer is the mixer of every evolution: _rx's in-place update on
each qubit.  Past TILE_QUBITS qubits each state is swept tile by tile, and
the tiles are jobs on disjoint amplitudes, spread over one thread per usable
core (_tiles), each holding one tile-sized temporary.  Given a beta, the
phase kernels fold that mixer into their sweep: a row tile takes its slice
of U_f's phase and then its low-qubit updates while it is in cache, so a
layer forms no 2^n phase.  This module holds only the engine; the
gate-level kernels of the reference circuit live in verify.
"""
from __future__ import annotations

import math
import os
import threading  # numpy has imported it already
from dataclasses import dataclass

import numpy as np

from .errors import SizeCapError
from .ising import DIAGONAL_CAP
from .model import brief

# The engine needs the 2^n energy table too, so it shares its ceiling.
STATEVECTOR_CAP = DIAGONAL_CAP

# apply_mixer's tile: 2^15 amplitudes (512 KiB) and its temporary fit a 2 MiB L2.
TILE_QUBITS = 15

# Threads that share the tiles past TILE_QUBITS: one per core this process may run on,
# the calling thread among them.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

_pool = None  # (pid, work queue) of the tile pool, made by _tiles on first use
_pool_lock = threading.Lock()


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
        raise SizeCapError(f"qubit count must be in [1, {STATEVECTOR_CAP}], got {brief(n)}")
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
    (B, 1, 1, 1) columns from one np.cos and one np.sin call.  A block row
    sees the very coefficients a single state at the same angle would,
    because numpy's float64 cos and sin equal math's (libm's) bit for bit,
    which tests/test_simulator.py::test_rx_coefficient_columns_are_math_scalars
    pins.  The cos column is complex, as a float scalar becomes in the
    product, so multiplying a block needs no buffered cast.
    """
    if not isinstance(theta, np.ndarray):
        return math.cos(theta / 2.0), -1j * math.sin(theta / 2.0)
    half = (theta / 2.0)[:, None, None, None]
    return np.cos(half).astype(np.complex128), -1j * np.sin(half)


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
    _sweep(psi, None, None, beta)


def _sweep(psi: StateVector, phase_of, gamma, beta) -> None:
    """Multiply by phase_of(gamma) unless it is None, then R_x(beta) on every qubit unless beta is None.

    phase_of(gamma) gives a function of an amplitude slice z returning the
    phase factors of amplitudes z.  A one-row block runs as one state, on
    scalar coefficients and 1-D views.  Up to TILE_QUBITS qubits the block
    takes the phase, then the mixer, whole; past it each state is swept by
    _tiled with its own row's angles.
    """
    amp = psi.amp
    if amp.ndim == 2 and len(amp) == 1:
        amp, gamma, beta = amp[0], _row_angle(gamma, 0), _row_angle(beta, 0)
    if psi.n <= TILE_QUBITS:
        if phase_of is not None:
            amp *= phase_of(gamma)(slice(None))
        if beta is not None:
            c, s = _rx_coefficients(beta)
            for q in range(psi.n):
                _rx(amp, q, c, s)
        return
    for b, state in enumerate(amp.reshape(-1, amp.shape[-1])):
        _tiled(state, None if phase_of is None else phase_of(_row_angle(gamma, b)), _row_angle(beta, b))


def _row_angle(angle, b: int):
    """Row b's angle as a float when angle holds one per row; a float or None as it is."""
    return float(angle[b]) if isinstance(angle, np.ndarray) else angle


def _tiled(state: np.ndarray, phase, beta) -> None:
    """One state past TILE_QUBITS: phase(z) and R_x(beta) tile by tile (either may be None).

    A row tile, 2^TILE_QUBITS contiguous amplitudes, takes its phase slice and
    then the updates of the qubits below TILE_QUBITS; once every row is done,
    a column slice, transposed so its last axis is the row index, takes the
    rest.  Each sweep's tiles are _tiles jobs on disjoint amplitudes.
    """
    rows = state.reshape(-1, 1 << TILE_QUBITS)
    c, s = _rx_coefficients(beta) if beta is not None else (None, None)

    def row_job(i):
        row = rows[i]
        if phase is not None:
            row *= phase(slice(i << TILE_QUBITS, (i + 1) << TILE_QUBITS))
        if beta is not None:
            for q in range(TILE_QUBITS):
                _rx(row, q, c, s)
    _tiles(row_job, len(rows))
    if beta is None:
        return
    # a column tile holds a row's worth of amplitudes, more past 8 rows so runs stay 1/8 row long
    width = max(rows.shape[1] // rows.shape[0], rows.shape[1] >> 3)

    def column_job(i):
        tile = rows[:, i * width:(i + 1) * width].T
        for j in range(len(rows).bit_length() - 1):
            _rx(tile, j, c, s)
    _tiles(column_job, rows.shape[1] // width)


def _tiles(job, count: int) -> None:
    """job(0), ..., job(count - 1), jobs on disjoint amplitudes, over up to _WORKERS threads.

    The calling thread is one worker and the pool's threads are the rest;
    each thread takes the next free index, so a core busy elsewhere takes
    fewer tiles.  Returns once every job is done, raising the first error a
    job raised.  Jobs make only elementwise numpy calls, which release the GIL.
    """
    free = iter(range(count))  # one next() at a time: the GIL serializes it

    def drain():
        for i in free:
            job(i)
    helpers = min(_WORKERS, count) - 1
    if helpers < 1:
        drain()
        return
    work = _tile_pool()
    done = type(work)()  # a SimpleQueue: queue is imported only with the pool
    for _ in range(helpers):
        work.put((drain, done))
    try:
        drain()
    finally:
        errors = [done.get() for _ in range(helpers)]
    for error in errors:
        if error is not None:
            raise error


def _tile_pool():
    """The work queue of _WORKERS - 1 daemon threads, started on the first call.

    Each thread runs the task of every (task, done) pair put on it and puts
    None, or the error the task raised, on done.  A forked child has none of
    its parent's threads, so it starts its own.
    """
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != os.getpid():
            import queue

            work = queue.SimpleQueue()

            def serve():
                while True:
                    task, done = work.get()
                    error = None
                    try:
                        task()
                    except BaseException as caught:  # raised again by the calling thread
                        error = caught
                    del task  # before done, so a finished sweep's state is freed with its caller's
                    done.put(error)
            for _ in range(_WORKERS - 1):
                threading.Thread(target=serve, name="qaoaforge-tiles", daemon=True).start()
            _pool = os.getpid(), work
        return _pool[1]


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


def apply_diagonal_phase(psi: StateVector, energies: np.ndarray, gamma, beta=None) -> None:
    """amp[z] *= e^{-i (gamma/2) energies[z]}, then apply_mixer(psi, beta) when beta is given.

    gamma (and beta) is a float, or an array of one angle per row of a
    (B, 2^n) block.  Equals the gate-level term-by-term sequence on the same
    Hamiltonian up to the global phase of any constant left out of the
    energy table.  With beta it is one layer, U_f(gamma) then U_i(beta), in
    one sweep: past TILE_QUBITS each row tile takes cos and sin of its own
    energies before its mixer updates, so no 2^n phase is formed.  The
    amplitudes are those of the two calls, bit for bit.
    """
    _check_diagonal(psi, energies)
    _sweep(psi, lambda g: lambda z: _phase(energies[z], g), gamma, beta)


def apply_level_phase(psi: StateVector, levels: np.ndarray, index: np.ndarray, gamma, beta=None) -> None:
    """apply_diagonal_phase of the diagonal levels[index], from the phases of its levels.

    cos and sin are taken of the L levels alone, a (B, L) table for a block,
    and gathered by the small-integer index, so each amplitude is multiplied
    by the very phase apply_diagonal_phase computes for its entry, bit for
    bit; past TILE_QUBITS each row tile gathers its own slice.  beta is
    apply_diagonal_phase's.
    """
    _check_diagonal(psi, index)

    def phase_of(g):
        table = _phase(levels, g)
        return lambda z: np.take(table, index[z], axis=-1)
    _sweep(psi, phase_of, gamma, beta)


def expectation_diagonal(psi: StateVector, energies: np.ndarray):
    """<psi| diag(energies) |psi>, exact: a float, or one per row of a block.

    One np.vecdot call takes the single-state dot product of every row, so
    a block row sums in a single state's order, where one matrix-vector
    product may sum in another.
    """
    _check_diagonal(psi, energies)
    e = np.vecdot(psi.probabilities(), energies)
    return float(e) if e.ndim == 0 else e


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
