"""Layered alternating circuits over a diagonal target Hamiltonian.

A layer applies the target-phase operator U_f(gamma) = e^{-i(gamma/2)H_f}
and the mixer U_i(beta) = prod_q R_x(beta) to the uniform superposition,
layers in increasing order; U_f is one phase multiply on the diagonal of
H_f (verify.gate_decomposed_run is its gate-level reference).  Energies are
exact expectations of the scaled Hamiltonian; unscaled and original-unit
values follow by multiplying back the scale factor and adding the dropped
constant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .ising import SpinHamiltonian, diagonalize, scale, scaling_factor
from . import simulator as sim


class LayerOrder(Enum):
    UF_THEN_UI = "uf_then_ui"   # target phase first within a layer
    UI_THEN_UF = "ui_then_uf"


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
    """Prepared circuit context: scaled Hamiltonian, its diagonal, and options."""

    hamiltonian: SpinHamiltonian
    k_scale: float
    layers: int
    layer_order: LayerOrder
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
    layer_order: LayerOrder = LayerOrder.UF_THEN_UI,
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
        layer_order=layer_order,
        energies=diagonalize(h),
    )


def _evolve(spec: QaoaCircuitSpec, params: QaoaParams, extra=None) -> sim.StateVector:
    """The one layer loop: all layers on the uniform superposition, layer 1 first.

    extra = (k, half, gate) calls gate(psi) right after half "uf" or "ui" of
    layer k; None runs the plain circuit.  Raises ValueError when params and
    spec disagree on the number of layers.
    """
    if params.p != spec.layers:
        raise ValueError(f"params have {params.p} layers, circuit has {spec.layers}")
    psi = sim.init_plus(spec.n)
    halves = ("uf", "ui") if spec.layer_order is LayerOrder.UF_THEN_UI else ("ui", "uf")
    for k in range(params.p):
        for half in halves:
            if half == "uf":
                sim.apply_diagonal_phase(psi, spec.energies, float(params.gamma[k]))
            else:
                for q in range(spec.n):
                    sim.apply_rx(psi, q, float(params.beta[k]))
            if extra is not None and extra[0] == k and extra[1] == half:
                extra[2](psi)
    return psi


def run(spec: QaoaCircuitSpec, params: QaoaParams) -> sim.StateVector:
    """Apply all layers to the uniform superposition, layer 1 first."""
    return _evolve(spec, params)


def energy(spec: QaoaCircuitSpec, params: QaoaParams) -> float:
    """Exact expectation of the scaled Hamiltonian in the circuit output."""
    return sim.expectation_diagonal(run(spec, params), spec.energies)


def energy_breakdown(spec: QaoaCircuitSpec, params: QaoaParams) -> dict[str, float]:
    """Scaled expectation plus its unscaled and original-objective forms."""
    e = energy(spec, params)
    return {
        "scaled": e,
        "unscaled": e * spec.k_scale,
        "objective": spec.objective(e),
    }


def shot_energy(spec: QaoaCircuitSpec, params: QaoaParams, shots: int, seed) -> float:
    """Monte-Carlo estimate of energy() from a finite sample."""
    psi = run(spec, params)
    hist = sim.sample(psi, shots, seed)
    total = 0.0
    for z, count in hist.items():
        total += count * spec.energies[z]
    return float(total / shots)


def parameter_shift_gradient(
    spec: QaoaCircuitSpec,
    params: QaoaParams,
    method: str = "fd",
    fd_step: float = 1e-5,
) -> np.ndarray:
    """Gradient of energy() w.r.t. [beta_1..beta_p, gamma_1..gamma_p].

    method="fd" (default): central finite differences with step fd_step on
    the exact energy.  The layer generators are sums of Pauli words with
    unequal coefficients, so a literal two-point shift per layer parameter
    is not exact; finite differences are correct for any generator.

    method="shift": exact per-gate parameter-shift rule.  U_i(beta_k) is a
    product of commuting R_x(beta_k) and U_f(gamma_k) a product of commuting
    Z-product rotations by gamma_k * coef, each generated by a +/-1-spectrum
    operator.  Shifting one gate angle by +/- pi/2 therefore equals running
    the plain circuit with one extra R_x (or Z-product rotation) of +/- pi/2
    inserted right after that half-layer; d/d(angle) is half the difference
    of the two energies.  Summing over the gates a layer parameter feeds
    (chain rule: d(angle)/d(gamma_k) = coef) gives the exact derivative from
    2 p (n + T) circuit runs, each holding O(2^n) memory.
    """
    p = params.p
    if method == "fd":
        base = params.as_vector()
        grad = np.zeros(2 * p)
        for i in range(2 * p):
            up = base.copy()
            dn = base.copy()
            up[i] += fd_step
            dn[i] -= fd_step
            e_up = energy(spec, QaoaParams.from_vector(up))
            e_dn = energy(spec, QaoaParams.from_vector(dn))
            grad[i] = (e_up - e_dn) / (2.0 * fd_step)
        return grad
    if method != "shift":
        raise ValueError(f"unknown gradient method: {method!r}")

    half_pi = math.pi / 2.0

    def energy_with(k: int, half: str, extra_gate) -> float:
        return sim.expectation_diagonal(_evolve(spec, params, (k, half, extra_gate)), spec.energies)

    def shift_diff(k: int, half: str, gate, target) -> float:
        """Half the energy difference with gate(psi, target, +/- pi/2) inserted."""
        up = energy_with(k, half, lambda psi: gate(psi, target, half_pi))
        dn = energy_with(k, half, lambda psi: gate(psi, target, -half_pi))
        return 0.5 * up - 0.5 * dn

    grad = np.zeros(2 * p)
    for k in range(p):
        grad[k] = sum(shift_diff(k, "ui", sim.apply_rx, q) for q in range(spec.n))
        grad[p + k] = sum(
            coef * shift_diff(k, "uf", sim.apply_rzk, idx)
            for idx, coef in spec.hamiltonian.terms.items()
        )
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
    """Dense grid of energy() over one layer's (beta, gamma) box."""
    if spec.layers != 1:
        raise ValueError("landscape scans are defined for single-layer circuits only")
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    if beta_range is None:
        beta_range = (-math.pi, math.pi)
    if gamma_range is None:
        gamma_range = (-math.pi, math.pi)
    beta_axis = np.linspace(beta_range[0], beta_range[1], resolution)
    gamma_axis = np.linspace(gamma_range[0], gamma_range[1], resolution)
    values = np.zeros((resolution, resolution))
    for i, b in enumerate(beta_axis):
        for j, g in enumerate(gamma_axis):
            values[i, j] = energy(spec, QaoaParams(beta=[b], gamma=[g]))
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

    def volume_reduction(self, p: int) -> int:
        return 2 ** (self.reduction_exponent_per_layer * p)

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
