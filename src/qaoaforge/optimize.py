"""Classical outer loops over the circuit parameters.

SPSA perturbs all parameters at once with a Bernoulli +/-1 vector and
estimates the gradient from two energy evaluations; gradient descent takes
the exact adjoint gradient.  Both run the same restart loop and differ only
in the step: multiple restarts, each on its own deterministic PRNG stream
derived from (seed, restart index), and optional tanh squashing that keeps
angles inside the restricted search box.
"""
from __future__ import annotations

import math
import operator
import time
from collections.abc import Mapping
from dataclasses import asdict, dataclass

import numpy as np

from .errors import OptimizerDivergence
from .ising import assignment_of_basis_index
from .model import bits_to_string
from . import qaoa
from . import simulator as sim

HISTOGRAM_MAX_ENTRIES = 4096

# SPSA gain schedule a_k = a0 / (A + k + 1)^alpha, c_k = c0 / (k + 1)^gamma_decay
# with A = 0.1 max_iters; the exponents are Spall's standard choices.
SPSA_C0 = 0.1
SPSA_ALPHA = 0.602
SPSA_GAMMA_DECAY = 0.101

# Gradient-descent step on the angle vector.
GD_LEARNING_RATE = 0.05


def _box(domain: qaoa.DomainDescriptor, p: int):
    """Per-coordinate half-width h and offset m of the restricted box.

    Squashing maps x into a range (lo, hi) as h (tanh x + m), with
    h = (hi - lo)/2 and m = (hi + lo)/(hi - lo); betas first, then gammas.
    """
    lo = np.repeat([domain.beta_range[0], domain.gamma_range[0]], p)
    hi = np.repeat([domain.beta_range[1], domain.gamma_range[1]], p)
    return (hi - lo) / 2.0, (hi + lo) / (hi - lo)


def squash_params(raw, domain: qaoa.DomainDescriptor) -> qaoa.QaoaParams:
    """Map 2p raw reals monotonically into the open restricted box."""
    raw = np.asarray(raw, dtype=float)
    if raw.size % 2 != 0 or raw.size == 0:
        raise ValueError("raw vector must have even positive length")
    h, m = _box(domain, raw.size // 2)
    return qaoa.QaoaParams.from_vector(h * (np.tanh(raw) + m))


def _unsquash(angles: np.ndarray, domain: qaoa.DomainDescriptor) -> np.ndarray:
    """Raw vector whose squash reproduces the given angle vector."""
    h, m = _box(domain, angles.size // 2)
    lim = 1.0 - 1e-12
    return np.arctanh(np.clip(angles / h - m, -lim, lim))


def _squash_jacobian(raw: np.ndarray, domain: qaoa.DomainDescriptor) -> np.ndarray:
    """d(angle)/d(raw), elementwise."""
    h, _ = _box(domain, raw.size // 2)
    return h * (1.0 - np.tanh(raw) ** 2)


@dataclass
class OptimizerConfig:
    """All knobs of the outer loop.

    shots=0 evaluates exact expectations, the only mode gradient descent
    accepts.  a0 is the SPSA step gain; None calibrates it per restart
    from an initial gradient-magnitude probe.
    """

    method: str = "spsa"
    max_iters: int = 2000
    restarts: int = 10
    seed: int = 0
    shots: int = 0
    squash: str = "none"
    a0: float | None = None

    def __post_init__(self):
        if self.method not in ("spsa", "gd"):
            raise ValueError(f"method must be 'spsa' or 'gd', got {self.method!r}")
        if self.squash not in ("none", "tanh"):
            raise ValueError(f"squash must be 'none' or 'tanh', got {self.squash!r}")
        if self.max_iters < 0 or self.restarts < 1 or self.shots < 0:
            raise ValueError("max_iters >= 0, restarts >= 1, shots >= 0 required")
        if self.a0 is not None and not (math.isfinite(self.a0) and self.a0 > 0):
            raise ValueError("a0 must be positive and finite")
        if self.method == "gd" and self.shots != 0:
            raise ValueError("gradient descent requires exact expectations (shots=0)")


class Histogram(Mapping):
    """Read-only basis index -> probability or count, held as two arrays.

    keys are the basis indices ascending and values their probabilities
    (float) or counts (int).  It reads as the dict it stands for: Python
    int keys in index order and Python float or int values, so it compares
    equal to that dict and prints the same numbers.
    """

    __slots__ = ("_keys", "_values")

    def __init__(self, keys: np.ndarray, values: np.ndarray):
        self._keys, self._values = keys, values
        keys.setflags(write=False)
        values.setflags(write=False)

    def __getitem__(self, key):
        try:
            i = int(np.searchsorted(self._keys, operator.index(key)))
        except (TypeError, OverflowError):
            raise KeyError(key) from None
        if i == self._keys.size or self._keys[i] != key:
            raise KeyError(key)
        return self._values[i].item()

    def __iter__(self):
        return iter(self._keys.tolist())

    def __len__(self) -> int:
        return self._keys.size

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


@dataclass
class RunRecord:
    """Everything a solve produced, JSON-ready via to_dict().

    Per restart, the final iterate is the best energy seen during that
    restart (including its initial point), so restart_finals[r] is restart
    r's final energy and best_energy == min(restart_finals); every restart
    runs max_iters iterations, so len(traces[r]) == max_iters.  With shots these
    are shot estimates, and best_energy, the lowest, reads low; exact_energy is
    the exact expectation of final_params, equal to best_energy without shots.
    best_energy_unscaled and best_objective are best_energy in unscaled and
    original units.  wall_time_s is informational and excluded from
    reproducibility comparisons.
    """

    method: str
    best_energy: float
    exact_energy: float
    best_energy_unscaled: float
    best_objective: float
    best_bitstring: str
    best_basis_index: int
    best_cost: float
    final_params: dict
    best_restart: int
    restart_finals: list
    traces: list
    initial_energies: list
    histogram: Histogram
    histogram_mode: str
    config: dict
    domain: dict
    wall_time_s: float

    def to_dict(self) -> dict:
        d = asdict(self)
        d["histogram"] = {str(z): v for z, v in self.histogram.items()}
        return d

    def comparable_dict(self) -> dict:
        """All reproducible fields (drops wall-clock timing)."""
        d = self.to_dict()
        d.pop("wall_time_s")
        return d


def _start_vector(spec, domain, config: OptimizerConfig, rng, initial_params) -> np.ndarray:
    """Restart starting point: a uniform box draw, or the given warm start.

    The draw takes all betas first, then all gammas.  In tanh mode the
    optimizer works on raw values, so the starting angles are pulled back
    through the inverse squash.
    """
    p = spec.layers
    if initial_params is None:
        beta = rng.uniform(domain.beta_range[0], domain.beta_range[1], p)
        gamma = rng.uniform(domain.gamma_range[0], domain.gamma_range[1], p)
        angles = np.concatenate([beta, gamma])
    else:
        angles = initial_params.as_vector()
        if angles.size != 2 * p:
            raise ValueError(f"initial_params has {angles.size // 2} layers, circuit has {p}")
    if config.squash == "tanh":
        return _unsquash(angles, domain)
    return angles


def _decode(vec: np.ndarray, config: OptimizerConfig, domain) -> qaoa.QaoaParams:
    """The circuit angles an optimizer vector stands for."""
    if config.squash == "tanh":
        return squash_params(vec, domain)
    return qaoa.QaoaParams.from_vector(vec)


def _check_finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise OptimizerDivergence(f"non-finite {what} encountered; aborting")
    return value


def _spsa_slope(objective, vec: np.ndarray, c: float, rng):
    """One SPSA probe: draw a Bernoulli +/-1 delta, return (E+ - E-)/2c and delta."""
    delta = rng.integers(0, 2, size=vec.size) * 2.0 - 1.0
    e_plus = _check_finite(objective(vec + c * delta), "energy")
    e_minus = _check_finite(objective(vec - c * delta), "energy")
    return (e_plus - e_minus) / (2.0 * c), delta


def _calibrate_a0(objective, vec, rng, big_a: float) -> float:
    """Pick a0 so the first step moves roughly 0.1 rad.

    Probes the SPSA gradient magnitude a few times at the initial point with
    the k=0 perturbation size; a0 = target_step * (A+1)^alpha / |g|.
    """
    mags = [abs(_spsa_slope(objective, vec, SPSA_C0, rng)[0]) for _ in range(5)]
    gmag = max(float(np.mean(mags)), 1e-3)
    return min(0.1 * (big_a + 1.0) ** SPSA_ALPHA / gmag, 50.0)


def _restart(spec, config: OptimizerConfig, domain, r: int, big_a: float, initial_params):
    """One restart on its own [seed, r] stream; SPSA and GD differ only in the step.

    Returns the trace, the initial energy, the best energy seen, its vector
    and the SPSA gain a0 (None for gradient descent).
    """
    rng = np.random.default_rng([config.seed, r])

    def objective(vec: np.ndarray) -> float:
        params = _decode(vec, config, domain)
        if config.shots > 0:
            return qaoa.shot_energy(spec, params, config.shots, rng)
        return qaoa.energy(spec, params)

    spsa = config.method == "spsa"
    vec = _start_vector(spec, domain, config, rng, initial_params)
    e0 = _check_finite(objective(vec), "energy")
    a0 = None
    if spsa:
        a0 = config.a0 if config.a0 is not None else _calibrate_a0(objective, vec, rng, big_a)
    best_e, best_vec = e0, vec.copy()
    trace: list[float] = []
    for k in range(config.max_iters):
        if spsa:
            step = a0 / (big_a + k + 1) ** SPSA_ALPHA
            ck = SPSA_C0 / (k + 1) ** SPSA_GAMMA_DECAY
            slope, delta = _spsa_slope(objective, vec, ck, rng)
            # 1/delta_i == delta_i for Bernoulli +/-1 perturbations
            g = slope * delta
        else:
            step = GD_LEARNING_RATE
            g = qaoa.parameter_shift_gradient(spec, _decode(vec, config, domain))
            if not np.isfinite(g).all():
                raise OptimizerDivergence("non-finite gradient encountered; aborting")
            if config.squash == "tanh":
                g = g * _squash_jacobian(vec, domain)
        vec = vec - step * g
        if not np.isfinite(vec).all():
            raise OptimizerDivergence("parameter vector diverged; aborting")
        e = _check_finite(objective(vec), "energy")
        trace.append(e)
        if e < best_e:
            best_e, best_vec = e, vec.copy()
    return trace, e0, best_e, best_vec, a0


def _largest(values: np.ndarray) -> np.ndarray:
    """Indices of the HISTOGRAM_MAX_ENTRIES largest values, ties to the lowest index, ascending.

    O(2^n): everything above the cut value, then the first indices equal
    to it until the entries are full.
    """
    cut = np.partition(values, -HISTOGRAM_MAX_ENTRIES)[-HISTOGRAM_MAX_ENTRIES]
    above = np.flatnonzero(values > cut)
    tied = np.flatnonzero(values == cut)[:HISTOGRAM_MAX_ENTRIES - above.size]
    return np.sort(np.concatenate((above, tied)))


def _final_histogram(psi: sim.StateVector, config: OptimizerConfig):
    """Distribution of the final state and its argmax (ties: lowest index)."""
    if config.shots > 0:
        rng = np.random.default_rng([config.seed, config.restarts])
        values, mode = sim.sample(psi, config.shots, rng), "counts"
        keep = np.flatnonzero(values)
    else:
        values, mode = psi.probabilities(), "exact"
        # every outcome up to the cap; past it, _largest picks without an index array of 2^n
        keep = np.arange(values.size) if values.size <= HISTOGRAM_MAX_ENTRIES else None
    if keep is None or keep.size > HISTOGRAM_MAX_ENTRIES:
        keep = _largest(values)
    best_z = int(np.argmax(values))
    return Histogram(keep, values[keep]), best_z, mode


def optimize(
    spec: qaoa.QaoaCircuitSpec, config: OptimizerConfig, initial_params=None
) -> RunRecord:
    """Multi-restart SPSA or gradient descent (config.method).

    Returns the best restart's best-seen iterate.  initial_params, when
    given, warm-starts every restart from those angles instead of a random
    draw (restarts still perturb independently).
    """
    t_start = time.perf_counter()
    domain = qaoa.restricted_domain(spec)
    big_a = 0.1 * config.max_iters
    traces, initials, finals, vectors, a0s = zip(*(
        _restart(spec, config, domain, r, big_a, initial_params) for r in range(config.restarts)
    ))
    best_r = int(np.argmin(finals))
    final_params = _decode(vectors[best_r], config, domain)
    best_e = float(finals[best_r])
    psi = qaoa.run(spec, final_params)
    hist, best_z, mode = _final_histogram(psi, config)
    best_bits = assignment_of_basis_index(best_z, spec.n)
    # echo only the settings the chosen method read
    config_echo = asdict(config)
    if config.method == "spsa":
        config_echo["A_resolved"] = big_a
        config_echo["a0_resolved"] = list(a0s)
    else:
        del config_echo["a0"]
    return RunRecord(
        method=config.method,
        best_energy=best_e,
        exact_energy=sim.expectation_diagonal(psi, spec.energies),
        best_energy_unscaled=best_e * spec.k_scale,
        best_objective=spec.objective(best_e),
        best_bitstring=bits_to_string(best_bits),
        best_basis_index=best_z,
        best_cost=float(spec.objective(spec.energies[best_z])),
        final_params={"beta": final_params.beta.tolist(), "gamma": final_params.gamma.tolist()},
        best_restart=best_r,
        restart_finals=[float(v) for v in finals],
        traces=[[float(v) for v in t] for t in traces],
        initial_energies=[float(v) for v in initials],
        histogram=hist,
        histogram_mode=mode,
        config=config_echo,
        domain=domain.to_dict(),
        wall_time_s=time.perf_counter() - t_start,
    )
