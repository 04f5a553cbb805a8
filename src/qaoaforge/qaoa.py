"""Layered alternating circuits over a diagonal target Hamiltonian.

Layer k = 1..p applies U_f(gamma_k) = e^{-i(gamma_k/2)H_f}, one phase multiply
on the diagonal of H_f (verify.gate_decomposed_run is its gate-level reference),
then the mixer U_i(beta_k) = prod_q R_x(beta_k), starting from |+>^n.  One layer
loop evolves one state (run, energy) or a block of rows of a (B, 2p) angle
array, through the one forward route of energies (landscape_scan's too),
shot_energies and energy_and_gradient (the one gradient entry point, whose
energies are its own forward run's).

Every U_f goes through one phase route: cos and sin of the levels of the
spec's level table (integer coefficients, see _level_table), gathered by
index, or else the direct phase of all 2^n entries, with the same bits.
A forward layer is one simulator call, U_f and then the mixer: past
sim.TILE_QUBITS each row tile takes its slice of the phase inside the
mixer's sweep, with one tile-sized temporary per thread, and no 2^n phase
array is formed.
Energies are exact expectations of the scaled Hamiltonian; in original
units, multiply by k_scale and add the constant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeCapError
from .ising import SpinHamiltonian, diagonalize, scale, scaling_factor
from .model import brief, finite_array, finite_number, whole_number
from . import simulator as sim

# Largest landscape_scan resolution: a 4096^2 grid holds 128 MiB of values.
SCAN_RESOLUTION_CAP = 4096

# Amplitude bytes per block of rows; from n = 12 up a block is one row.
BLOCK_BYTES = 64 << 10


@dataclass(frozen=True)
class QaoaParams:
    """One angle pair per layer."""

    beta: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        beta, gamma = (np.atleast_1d(finite_array(v, "parameters")).copy() for v in (self.beta, self.gamma))
        if beta.ndim != 1 or beta.shape != gamma.shape or beta.size < 1:
            raise ValueError("beta and gamma must be equal-length nonempty vectors")
        beta.setflags(write=False)
        gamma.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)

    @property
    def p(self) -> int:
        return self.beta.size

    def as_vector(self) -> np.ndarray:
        """Concatenated [beta..., gamma...]."""
        return np.concatenate([self.beta, self.gamma])

    @staticmethod
    def from_vector(vec) -> "QaoaParams":
        vec = finite_array(vec, "parameters")
        if vec.size % 2 != 0 or vec.size == 0:
            raise ValueError("parameter vector must have even positive length")
        p = vec.size // 2
        return QaoaParams(beta=vec[:p], gamma=vec[p:])


@dataclass
class QaoaCircuitSpec:
    """Prepared circuit context: scaled Hamiltonian and its diagonal.

    level_table is (levels, index) with levels[index] == energies, or None;
    see build_circuit.
    """

    hamiltonian: SpinHamiltonian
    k_scale: float
    layers: int
    energies: np.ndarray
    level_table: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def n(self) -> int:
        return self.hamiltonian.n

    @property
    def constant(self) -> float:
        return self.hamiltonian.constant

    def objective(self, scaled: float) -> float:
        """Original-unit objective of a scaled energy: scaled * k_scale + constant."""
        return scaled * self.k_scale + self.constant


def build_circuit(
    h_raw: SpinHamiltonian,
    layers: int = 1,
    scaled: bool = True,
) -> QaoaCircuitSpec:
    """Prepare a circuit spec from a raw Hamiltonian.

    With scaled=True every coefficient is divided by the largest magnitude,
    so max |coef| == 1 and rotation angles stop being redundant across
    scale; minimizers are unchanged.  Integer coefficients also give the
    spec a level table when it is small enough (see _level_table).
    energies and the level table are read-only, so the two cannot drift apart.
    """
    if not h_raw.terms:
        raise ValueError("Hamiltonian has no terms")
    layers = whole_number(layers, "layers", 1)
    k = scaling_factor(h_raw) if scaled else 1.0
    h = scale(h_raw, k) if scaled else h_raw
    energies = diagonalize(h)
    level_table = _level_table(h, energies)
    for table in (energies, *(level_table or ())):
        table.setflags(write=False)
    return QaoaCircuitSpec(hamiltonian=h, k_scale=k, layers=layers, energies=energies, level_table=level_table)


def _level_table(h: SpinHamiltonian, energies: np.ndarray):
    """(levels, index) with levels[index] == energies exactly, or None.

    When every coefficient is an integer, as for an unweighted max-cut after
    scaling (+/-1), every entry of diagonalize is an exact integer sum in
    [-span, span], span = sum |coef|: levels = -span..span and index =
    energies + span, one byte or two per entry.  None past 2^16 levels or
    with more levels than half the entries, where the direct phase is as fast.
    """
    coefs = list(h.terms.values())
    if not all(float(c).is_integer() for c in coefs):
        return None
    span = int(sum(abs(c) for c in coefs))
    count = 2 * span + 1
    if count > min(1 << 16, 1 << (h.n - 1)):
        return None
    index = (energies + span).astype(np.uint8 if count <= 1 << 8 else np.uint16)
    return np.arange(-span, span + 1, dtype=float), index


def _apply_uf(spec: QaoaCircuitSpec, psi: sim.StateVector, gamma, beta=None) -> None:
    """U_f(gamma) on a state or a block, then the mixer U_i(beta) when beta is given.

    The one phase route of every evolution: through the level table when the
    spec has one, else the direct phase; both give the same amplitudes bit
    for bit.  With beta the simulator folds the mixer into the phase's sweep.
    """
    if spec.level_table is None:
        sim.apply_diagonal_phase(psi, spec.energies, gamma, beta)
    else:
        sim.apply_level_phase(psi, *spec.level_table, gamma, beta)


def _evolve(spec: QaoaCircuitSpec, psi: sim.StateVector, betas, gammas) -> sim.StateVector:
    """The layer loop: U_f(gamma_k), then the mixer U_i(beta_k), k = 1..p.

    Each entry of betas and gammas is a float for one state, or one angle
    per row of a block.
    """
    for beta, gamma in zip(betas, gammas):
        _apply_uf(spec, psi, gamma, beta)
    return psi


def run(spec: QaoaCircuitSpec, params: QaoaParams) -> sim.StateVector:
    """Apply all layers to the uniform superposition, layer 1 first.

    Each layer is U_f(gamma_k) followed by U_i(beta_k).  Raises ValueError
    when params and spec disagree on the number of layers.
    """
    if params.p != spec.layers:
        raise ValueError(f"params have {params.p} layers, circuit has {spec.layers}")
    return _evolve(spec, sim.init_plus(spec.n), params.beta.tolist(), params.gamma.tolist())


def energy(spec: QaoaCircuitSpec, params: QaoaParams) -> float:
    """Exact expectation of the scaled Hamiltonian in the circuit output."""
    return sim.expectation_diagonal(run(spec, params), spec.energies)


def _forward(spec: QaoaCircuitSpec, angles, read, k: int = 1) -> np.ndarray:
    """The one forward route over (B, 2p) angle rows; returns the energies read returns.

    Checks the rows, then evolves them from |+> in blocks of as many rows as
    fit k states each in BLOCK_BYTES, one block alive at a time.  read gets a
    block's slice of the rows, their angles and their evolved (b, 2^n)
    states, which it may overwrite; every row is bit for bit run()'s state.
    """
    angles = finite_array(angles, "parameters")
    p = spec.layers
    if angles.ndim != 2 or angles.shape[1] != 2 * p:
        raise ValueError(f"angle rows must hold 2p = {2 * p} entries for {p} layers, got shape {angles.shape}")
    size = max(1, BLOCK_BYTES // (k * 16 << spec.n))
    out = np.empty(len(angles))
    for start in range(0, len(angles), size):
        rows = slice(start, start + size)
        block = angles[rows]
        psi = _evolve(spec, sim.init_plus(spec.n, rows=len(block)), block[:, :p].T, block[:, p:].T)
        out[rows] = read(rows, block, psi)
        del psi  # freed before the next block's |+> and phase
    return out


def energies(spec: QaoaCircuitSpec, angles) -> np.ndarray:
    """energy() of every row of a (B, 2p) array of [beta..., gamma...] rows, bit for bit.

    Like shot_energies and energy_and_gradient, raises ValueError before
    anything evolves when a row does not hold 2p angles or one is not a finite number.
    """
    return _forward(spec, angles, lambda rows, block, psi: sim.expectation_diagonal(psi, spec.energies))


def shot_energies(spec: QaoaCircuitSpec, angles, shots: int, rngs) -> np.ndarray:
    """Monte-Carlo estimates of energies(): row i's counts @ energies / shots.

    Row i's counts are sim.sample of run() at its angles from rngs[i] (a
    Generator or a seed), drawn in row order.
    """
    if np.ndim(angles) == 2 and len(rngs) != len(angles):
        raise ValueError(f"{len(rngs)} generators for {len(angles)} angle rows")
    return _forward(spec, angles, lambda rows, block, psi: [
        sim.sample(sim.StateVector(spec.n, amp), shots, rng) @ spec.energies / shots
        for amp, rng in zip(psi.amp, rngs[rows])])


def energy_and_gradient(spec: QaoaCircuitSpec, angles) -> tuple[np.ndarray, np.ndarray]:
    """energies() of (B, 2p) angle rows and their exact (B, 2p) gradients.

    The adjoint method (Jones & Gacon 2020, arXiv:2009.02823), two states per
    row: the forward run gives phi and lam = E * phi.  For layer k = p..1 each
    row reads d/d(beta_k) = Im <lam| sum_q X_q |phi> by one vdot per qubit,
    both undo R_x(beta_k), one np.vecdot reads d/d(gamma_k) = Im <lam| E |phi>
    for every row, and both undo U_f(gamma_k).  Every row equals a one-row
    call bit for bit; verify's gradients are its oracles.
    """
    p = spec.layers
    grad = np.zeros(np.shape(angles))

    def read(rows, block, phi):
        e = sim.expectation_diagonal(phi, spec.energies)
        lam = sim.StateVector(spec.n, spec.energies * phi.amp)
        g = grad[rows]
        for k in reversed(range(p)):
            for j, (lr, fr) in enumerate(zip(lam.amp, phi.amp)):
                for q in range(spec.n):
                    lv, fv = lr.reshape(-1, 2, 1 << q), fr.reshape(-1, 2, 1 << q)
                    g[j, k] += (np.vdot(lv[:, 0], fv[:, 1]) + np.vdot(lv[:, 1], fv[:, 0])).imag
            for psi in (phi, lam):
                sim.apply_mixer(psi, -block[:, k])
            g[:, p + k] = np.vecdot((np.conj(lam.amp) * phi.amp).imag, spec.energies)
            if k > 0:
                for psi in (phi, lam):
                    _apply_uf(spec, psi, -block[:, p + k])
        return e
    return _forward(spec, angles, read, k=2), grad


@dataclass
class LandscapeGrid:
    """Energy values over a (beta, gamma) grid for a one-layer circuit."""

    beta_axis: np.ndarray
    gamma_axis: np.ndarray
    values: np.ndarray

    def to_csv(self) -> str:
        """First row 'beta\\gamma' then the gamma axis; one row per beta."""
        header = "beta\\gamma," + ",".join(f"{g:.17g}" for g in self.gamma_axis)
        lines = [header]
        for i, b in enumerate(self.beta_axis):
            row = ",".join(f"{v:.17g}" for v in self.values[i])
            lines.append(f"{b:.17g},{row}")
        return "\n".join(lines) + "\n"


def landscape_scan(
    spec: QaoaCircuitSpec,
    resolution: int,
    beta_range: tuple[float, float] | None = None,
    gamma_range: tuple[float, float] | None = None,
) -> LandscapeGrid:
    """Dense grid of energy() over one layer's (beta, gamma) box, from one energies() call.

    At fixed gamma, E(beta) is a trigonometric polynomial of degree <= D, the largest term
    degree, so E(beta) = sum_s E(beta_s) K(beta - beta_s) with beta_s = 2 pi s / (2D + 1),
    s = 0..2D, and K(x) = (1 + 2 sum_{k<=D} cos kx) / (2D + 1) (Wierichs, Izaac, Wang & Lin,
    Quantum 6, 677 (2022), arXiv:2107.12390), summed elementwise (no BLAS), to rounding.
    With 2D + 1 >= resolution the call holds every grid point: energy() bit for bit."""
    if spec.layers != 1:
        raise ValueError("landscape scans are defined for single-layer circuits only")
    resolution = whole_number(resolution, "resolution", 2)
    if resolution > SCAN_RESOLUTION_CAP:
        raise SizeCapError(f"scan resolution must be <= {SCAN_RESOLUTION_CAP}, got {brief(resolution)}")
    box = [(-math.pi, math.pi) if bounds is None else [finite_number(x, name) for x in bounds]
           for name, bounds in (("beta_range", beta_range), ("gamma_range", gamma_range))]
    beta_axis, gamma_axis = (np.linspace(lo, hi, resolution) for lo, hi in box)
    degree = max(map(len, spec.hamiltonian.terms))
    count = 2 * degree + 1
    nodes = beta_axis if count >= resolution else 2.0 * math.pi * np.arange(count) / count
    rows = np.column_stack([np.tile(nodes, resolution), np.repeat(gamma_axis, nodes.size)])
    samples = energies(spec, rows).reshape(resolution, nodes.size)  # row j: gamma_j's column at the nodes
    if count >= resolution:
        return LandscapeGrid(beta_axis, gamma_axis, samples.T.copy())
    x = beta_axis[:, None] - nodes
    kernel = (1.0 + 2.0 * sum(np.cos(k * x) for k in range(1, degree + 1))) / count
    values = np.empty((resolution, resolution))
    for j, column in enumerate(samples):  # a column at a time: no resolution^2 x count temporary
        values[:, j] = (kernel * column).sum(axis=1)
    return LandscapeGrid(beta_axis, gamma_axis, values)


@dataclass(frozen=True)
class DomainDescriptor:
    """Parameter box for start draws and tanh squashing, proved at p = 1 only.

    beta folds to [0, pi], and gamma to [0, pi] too when every term has even
    degree, else [-pi, pi].  U_f(gamma) = e^{-i(gamma/2)H}, so T is a period
    in gamma when T * gap / 2 is a multiple of 2 pi for every gap between two
    levels of H.  With integer coefficients (as _level_table tests) every gap
    is even, so 2 pi is a period and [-pi, pi] covers one; with real
    coefficients there is no period and the gamma range is only a search
    range.  At p = 1 the box holds a minimum of [-pi, pi]^2
    (verify.check_restricted_box_holds_minimum); at p >= 2 it can exclude the
    optimum (ROADMAP item 2), so reduction_exponent_per_layer is the box's
    volume exponent per layer, not a proved reduction.
    """

    beta_range: tuple[float, float]
    gamma_range: tuple[float, float]
    fully_restricted: bool

    @property
    def reduction_exponent_per_layer(self) -> int:
        return 2 if self.fully_restricted else 1

    def to_dict(self) -> dict:
        return {
            "beta_range": list(self.beta_range),
            "gamma_range": list(self.gamma_range),
            "fully_restricted": self.fully_restricted,
            "reduction_exponent_per_layer": self.reduction_exponent_per_layer,
        }


def restricted_domain(spec: QaoaCircuitSpec) -> DomainDescriptor:
    """Search box implied by the circuit Hamiltonian's term degrees."""
    fully = spec.hamiltonian.all_even_degrees()
    return DomainDescriptor((0.0, math.pi), (0.0, math.pi) if fully else (-math.pi, math.pi), fully)
