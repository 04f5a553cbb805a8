"""Layered alternating circuits over a diagonal target Hamiltonian.

Layer k applies the target-phase operator U_f(gamma_k) = e^{-i(gamma_k/2)H_f}
and then the mixer U_i(beta_k) = prod_q R_x(beta_k), layers in increasing
order on the uniform superposition; U_f is one phase multiply on the
diagonal of H_f (verify.gate_decomposed_run is its gate-level reference).
One layer loop evolves one state (run, energy, the adjoint gradient) or a
block of states with one angle row each (energies, which scans go through).
Energies are exact expectations of the scaled Hamiltonian; unscaled and
original-unit values follow by multiplying back the scale factor and adding
the dropped constant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeCapError
from .ising import SpinHamiltonian, diagonalize, scale, scaling_factor
from . import simulator as sim

# Largest landscape_scan resolution: a 4096^2 grid holds 128 MiB of values.
SCAN_RESOLUTION_CAP = 4096

# Amplitude bytes per block in energies(); from n = 12 up a block is one state.
BLOCK_BYTES = 64 << 10


@dataclass(frozen=True)
class QaoaParams:
    """One angle pair per layer."""

    beta: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        beta = np.atleast_1d(np.array(self.beta, dtype=float))
        gamma = np.atleast_1d(np.array(self.gamma, dtype=float))
        if beta.ndim != 1 or beta.shape != gamma.shape or beta.size < 1:
            raise ValueError("beta and gamma must be equal-length nonempty vectors")
        if not (np.isfinite(beta).all() and np.isfinite(gamma).all()):
            raise ValueError("parameters must be finite")
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
        vec = np.asarray(vec, dtype=float)
        if vec.size % 2 != 0 or vec.size == 0:
            raise ValueError("parameter vector must have even positive length")
        p = vec.size // 2
        return QaoaParams(beta=vec[:p], gamma=vec[p:])


@dataclass
class QaoaCircuitSpec:
    """Prepared circuit context: scaled Hamiltonian and its diagonal."""

    hamiltonian: SpinHamiltonian
    k_scale: float
    layers: int
    energies: np.ndarray

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
    scale; minimizers are unchanged.
    """
    if not h_raw.terms:
        raise ValueError("Hamiltonian has no terms")
    if layers < 1:
        raise ValueError("layers must be >= 1")
    k = scaling_factor(h_raw) if scaled else 1.0
    h = scale(h_raw, k) if scaled else h_raw
    return QaoaCircuitSpec(
        hamiltonian=h,
        k_scale=k,
        layers=layers,
        energies=diagonalize(h),
    )


def _evolve(spec: QaoaCircuitSpec, psi: sim.StateVector, betas, gammas) -> sim.StateVector:
    """The layer loop: U_f(gamma_k), then the mixer U_i(beta_k), k = 1..p.

    Each entry of betas and gammas is a float for one state, or one angle
    per row of a block.
    """
    for beta, gamma in zip(betas, gammas):
        sim.apply_diagonal_phase(psi, spec.energies, gamma)
        sim.apply_mixer(psi, beta)
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


def energies(spec: QaoaCircuitSpec, angles) -> np.ndarray:
    """energy() of every row of a (B, 2p) array of [beta..., gamma...] rows.

    Rows evolve together, in blocks of as many states as fit in BLOCK_BYTES.
    A block of one row is an energy() call: per-row angle arrays cost more
    than they save on a single state.  Every value equals energy() of its
    row bit for bit.  Raises ValueError, before evolving anything, when a
    row does not hold 2p angles or an angle is not finite.
    """
    angles = np.asarray(angles, dtype=float)
    p = spec.layers
    if angles.ndim != 2 or angles.shape[1] != 2 * p:
        raise ValueError(f"angle rows must hold 2p = {2 * p} entries for {p} layers, got shape {angles.shape}")
    if not np.isfinite(angles).all():
        raise ValueError("parameters must be finite")
    rows = max(1, BLOCK_BYTES // (16 << spec.n))
    out = np.empty(len(angles))
    for start in range(0, len(angles), rows):
        block = angles[start:start + rows]
        if len(block) == 1:
            out[start] = energy(spec, QaoaParams.from_vector(block[0]))
        else:
            psi = _evolve(spec, sim.init_plus(spec.n, rows=len(block)), block[:, :p].T, block[:, p:].T)
            out[start:start + len(block)] = sim.expectation_diagonal(psi, spec.energies)
    return out


def shot_energy(spec: QaoaCircuitSpec, params: QaoaParams, shots: int, seed) -> float:
    """Monte-Carlo estimate of energy() from a finite sample."""
    return float(sim.sample(run(spec, params), shots, seed) @ spec.energies / shots)


def parameter_shift_gradient(spec: QaoaCircuitSpec, params: QaoaParams) -> np.ndarray:
    """Exact gradient of energy() w.r.t. [beta_1..beta_p, gamma_1..gamma_p].

    The adjoint method (Jones & Gacon 2020, arXiv:2009.02823): one run gives
    phi, and lam = E * phi.  For layer k = p..1 it reads
    d/d(beta_k) = Im <lam| sum_q X_q |phi>, undoes R_x(beta_k) on both
    states, reads d/d(gamma_k) = Im <lam| E |phi> and undoes U_f(gamma_k).
    About three runs of work on two states; verify.shift_rule_gradient and
    verify.fd_gradient are its oracles.
    """
    phi = run(spec, params)
    lam = sim.StateVector(spec.n, spec.energies * phi.amp)
    p = params.p
    grad = np.zeros(2 * p)
    for k in reversed(range(p)):
        for q in range(spec.n):
            lv, fv = lam.amp.reshape(-1, 2, 1 << q), phi.amp.reshape(-1, 2, 1 << q)
            grad[k] += (np.vdot(lv[:, 0], fv[:, 1]) + np.vdot(lv[:, 1], fv[:, 0])).imag
        for psi in (phi, lam):
            sim.apply_mixer(psi, -float(params.beta[k]))
        grad[p + k] = (np.conj(lam.amp) * phi.amp).imag @ spec.energies
        if k > 0:
            for psi in (phi, lam):
                sim.apply_diagonal_phase(psi, spec.energies, -float(params.gamma[k]))
    return grad


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
    """Dense grid of energy() over one layer's (beta, gamma) box, one energies() call per beta."""
    if spec.layers != 1:
        raise ValueError("landscape scans are defined for single-layer circuits only")
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    if resolution > SCAN_RESOLUTION_CAP:
        raise SizeCapError(f"scan resolution must be <= {SCAN_RESOLUTION_CAP}, got {resolution}")
    if beta_range is None:
        beta_range = (-math.pi, math.pi)
    if gamma_range is None:
        gamma_range = (-math.pi, math.pi)
    if not np.isfinite([beta_range, gamma_range]).all():
        raise ValueError("scan range bounds must be finite")
    beta_axis = np.linspace(beta_range[0], beta_range[1], resolution)
    gamma_axis = np.linspace(gamma_range[0], gamma_range[1], resolution)
    values = np.empty((resolution, resolution))
    for i, b in enumerate(beta_axis):
        values[i] = energies(spec, np.column_stack([np.full(resolution, b), gamma_axis]))
    return LandscapeGrid(beta_axis=beta_axis, gamma_axis=gamma_axis, values=values)


@dataclass(frozen=True)
class DomainDescriptor:
    """Parameter box the landscape symmetries justify searching.

    beta always folds to [0, pi].  gamma folds to [0, pi] too when every
    term has even degree (the pi-periodicity in beta holds there); with any
    odd-degree term gamma stays [-pi, pi].  The box volume shrinks by
    2^(2p) in the fully restricted case and 2^p otherwise, relative to the
    full [-pi, pi]^2p box.
    """

    beta_range: tuple[float, float]
    gamma_range: tuple[float, float]
    fully_restricted: bool
    reduction_exponent_per_layer: int

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
    if fully:
        return DomainDescriptor((0.0, math.pi), (0.0, math.pi), True, 2)
    return DomainDescriptor((0.0, math.pi), (-math.pi, math.pi), False, 1)
