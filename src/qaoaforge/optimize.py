"""Classical outer loops over the circuit parameters.

SPSA perturbs all parameters at once with a Bernoulli +/-1 vector and
estimates the gradient from two energy evaluations; gradient descent takes
the exact adjoint gradient.  Both run one restart loop and differ only in
the step: all restarts step together as the rows of one (restarts, 2p)
array, each row on its own deterministic PRNG stream derived from (seed,
restart index), with optional tanh squashing that keeps angles inside the
restricted search box.  In exact mode SPSA evaluates every step's rows in
one qaoa.energies batch: the start points as R rows, each calibration probe
and each iteration's probe as 2R rows (E+ over E-), then the R new iterates.
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


def _squash(raw: np.ndarray, domain: qaoa.DomainDescriptor) -> np.ndarray:
    """h (tanh x + m) on a raw vector, or on every row of an array of them."""
    h, m = _box(domain, raw.shape[-1] // 2)
    return h * (np.tanh(raw) + m)


def squash_params(raw, domain: qaoa.DomainDescriptor) -> qaoa.QaoaParams:
    """Map 2p raw reals monotonically into the open restricted box."""
    raw = np.asarray(raw, dtype=float)
    if raw.size % 2 != 0 or raw.size == 0:
        raise ValueError("raw vector must have even positive length")
    return qaoa.QaoaParams.from_vector(_squash(raw, domain))


def _unsquash(angles: np.ndarray, domain: qaoa.DomainDescriptor) -> np.ndarray:
    """Raw vector whose squash reproduces the given angle vector."""
    h, m = _box(domain, angles.size // 2)
    lim = 1.0 - 1e-12
    return np.arctanh(np.clip(angles / h - m, -lim, lim))


def _squash_jacobian(raw: np.ndarray, domain: qaoa.DomainDescriptor) -> np.ndarray:
    """d(angle)/d(raw), elementwise, on a raw vector or on every row of an array."""
    h, _ = _box(domain, raw.shape[-1] // 2)
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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
    r's final energy and best_energy == min(restart_finals).  Every restart
    runs max_iters iterations, so traces is one read-only (restarts,
    max_iters) float64 array, row r holding restart r's energy after each
    iteration; to_dict() writes it as nested lists.  With shots these
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
    traces: np.ndarray
    initial_energies: list
    histogram: Histogram
    histogram_mode: str
    config: dict
    domain: dict
    wall_time_s: float

    def to_dict(self) -> dict:
        d = asdict(self)
        d["traces"] = self.traces.tolist()
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


def _check_finite(values: np.ndarray, restarts, what: str) -> np.ndarray:
    """values, when every entry is finite; else OptimizerDivergence naming the first bad row's restart.

    restarts[i] is the restart that row i of values belongs to.
    """
    finite = np.isfinite(values).reshape(len(values), -1).all(axis=1)
    if not finite.all():
        raise OptimizerDivergence(f"restart {restarts[int(np.argmin(finite))]}: {what}; aborting")
    return values


def _restarts(spec, config: OptimizerConfig, domain, big_a: float, initial_params):
    """Every restart in lockstep: row r of each (R, 2p) array is restart r, on its [seed, r] stream.

    Each entry gets the float operations a lone restart would give it; exact
    SPSA evaluates each step as one qaoa.energies batch (see the module
    docstring).  With shots, row r draws its deltas and samples from its own
    generator in a lone restart's order: start, five probes, then per
    iteration delta, E+, E-, E.  Gradient descent reads each row's energy and
    gradient from one qaoa.energy_and_gradient call and the last iterate's
    energy from qaoa.energy: max_iters + 1 evolutions per restart.  Returns
    the (R, max_iters) traces, the initial energies, each restart's best
    energy and its vector, and the SPSA gains a0 as a list (None for GD).
    """
    rows = np.arange(config.restarts)
    both = np.tile(rows, 2)  # the restart of each row of an E+ over E- batch
    rngs = [np.random.default_rng([config.seed, r]) for r in rows]
    spsa = config.method == "spsa"

    def energies(vecs: np.ndarray, restarts: np.ndarray) -> np.ndarray:
        """Checked SPSA energies of optimizer rows; row i belongs to restarts[i]."""
        if config.shots > 0:
            e = [qaoa.shot_energy(spec, _decode(v, config, domain), config.shots, rngs[r])
                 for v, r in zip(vecs, restarts)]
        else:
            e = qaoa.energies(spec, _squash(vecs, domain) if config.squash == "tanh" else vecs)
        return _check_finite(np.asarray(e, dtype=float), restarts, "non-finite energy encountered")

    def slopes(vecs: np.ndarray, c: float):
        """One SPSA probe per row: Bernoulli +/-1 deltas, then (E+ - E-)/2c and the deltas."""
        deltas = np.array([rng.integers(0, 2, size=vecs.shape[1]) * 2.0 - 1.0 for rng in rngs])
        e = energies(np.concatenate((vecs + c * deltas, vecs - c * deltas)), both)
        return (e[:rows.size] - e[rows.size:]) / (2.0 * c), deltas

    def point(vecs: np.ndarray, k: int):
        """Checked energies at iterate k, and the gradients there when GD steps from it (else None)."""
        if spsa:
            return energies(vecs, rows), None
        params = [_decode(v, config, domain) for v in vecs]
        if k == config.max_iters:
            e, g = [qaoa.energy(spec, x) for x in params], None
        else:
            e, g = zip(*(qaoa.energy_and_gradient(spec, x) for x in params))
            g = np.array(g)
        return _check_finite(np.array(e, dtype=float), rows, "non-finite energy encountered"), g

    vecs = np.array([_start_vector(spec, domain, config, rng, initial_params) for rng in rngs])
    e0, g = point(vecs, 0)
    a0 = None
    if spsa and config.a0 is not None:
        a0 = [config.a0] * rows.size
    elif spsa:
        # pick a0 so the first step moves roughly 0.1 rad: five probes of the gradient
        # magnitude at the start with the k = 0 perturbation, a0 = 0.1 (A+1)^alpha / |g|
        mags = np.column_stack([np.abs(slopes(vecs, SPSA_C0)[0]) for _ in range(5)])
        gmag = np.maximum(mags.mean(axis=1), 1e-3)
        a0 = np.minimum(0.1 * (big_a + 1.0) ** SPSA_ALPHA / gmag, 50.0).tolist()
    gains = np.asarray(a0, dtype=float) if spsa else None
    best_e, best_vecs = e0.copy(), vecs.copy()
    traces = np.empty((rows.size, config.max_iters))
    for k in range(config.max_iters):
        if spsa:
            step = (gains / (big_a + k + 1) ** SPSA_ALPHA)[:, None]
            ck = SPSA_C0 / (k + 1) ** SPSA_GAMMA_DECAY
            slope, delta = slopes(vecs, ck)
            # 1/delta_i == delta_i for Bernoulli +/-1 perturbations
            g = slope[:, None] * delta
        else:
            step = GD_LEARNING_RATE
            _check_finite(g, rows, "non-finite gradient encountered")
            if config.squash == "tanh":
                g = g * _squash_jacobian(vecs, domain)
        vecs = _check_finite(vecs - step * g, rows, "parameter vector diverged")
        e, g = point(vecs, k + 1)
        traces[:, k] = e
        better = e < best_e
        best_e[better], best_vecs[better] = e[better], vecs[better]
    traces.setflags(write=False)
    return traces, e0, best_e, best_vecs, a0


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
    traces, initials, finals, vectors, a0s = _restarts(spec, config, domain, big_a, initial_params)
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
        config_echo["a0_resolved"] = a0s
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
        restart_finals=finals.tolist(),
        traces=traces,
        initial_energies=initials.tolist(),
        histogram=hist,
        histogram_mode=mode,
        config=config_echo,
        domain=domain.to_dict(),
        wall_time_s=time.perf_counter() - t_start,
    )
