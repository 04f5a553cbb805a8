"""Classical outer loops over the circuit parameters.

SPSA perturbs all parameters at once with a Bernoulli +/-1 vector and
estimates the gradient from two energy evaluations; gradient descent takes
the exact adjoint gradient.  Both run one restart loop and differ only in
the step: all restarts step together as the rows of one (restarts, 2p)
array, each row on its own PRNG stream from (seed, restart index), with
optional tanh squashing into the restricted search box.  Each step is one
qaoa call on all its rows: for SPSA one energies (shot_energies with shots)
batch per iteration, the iterates with their probe's E+ and E- rows, and
energy_and_gradient for every GD iterate but the last.
"""
from __future__ import annotations

import operator
import time
from collections.abc import Mapping
from dataclasses import asdict, dataclass

import numpy as np

from .errors import OptimizerDivergence, SizeCapError
from .ising import assignment_of_basis_index
from .model import bits_to_string, brief, positive_number, whole_number
from . import qaoa
from . import simulator as sim

HISTOGRAM_MAX_ENTRIES = 4096

# Largest run, 1 GiB of float64: per restart a traces row of max_iters, its angle
# rows (48p: SPSA's first batch holds 13 rows of 2p, beside the iterate, its best
# and a probe) and its generator (about 1 KiB, 128 entries).
RUN_ENTRIES_CAP = 1 << 27

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
    lo = np.array([domain.beta_range[0], domain.gamma_range[0]])
    hi = np.array([domain.beta_range[1], domain.gamma_range[1]])
    return np.repeat((hi - lo) / 2.0, p), np.repeat((hi + lo) / (hi - lo), p)


def _squash(raw: np.ndarray, domain: qaoa.DomainDescriptor) -> np.ndarray:
    """h (tanh x + m) on a raw vector, or on every row of an array of them."""
    h, m = _box(domain, raw.shape[-1] // 2)
    out = np.tanh(raw)
    out += m
    out *= h  # (tanh x + m) h == h (tanh x + m), with one temporary
    return out


def squash_params(raw, domain: qaoa.DomainDescriptor) -> qaoa.QaoaParams:
    """Map 2p raw reals monotonically into the open restricted box."""
    raw = np.asarray(raw, dtype=float)
    if raw.size % 2 != 0 or raw.size == 0:
        raise ValueError("raw vector must have even positive length")
    return qaoa.QaoaParams.from_vector(_squash(raw, domain))


def _unsquash(angles: np.ndarray, domain: qaoa.DomainDescriptor) -> np.ndarray:
    """Raw vector whose squash reproduces the given angle vector, or the rows of an array of them."""
    h, m = _box(domain, angles.shape[-1] // 2)
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
        for field, lo in (("max_iters", 0), ("restarts", 1), ("seed", 0), ("shots", 0)):
            setattr(self, field, whole_number(getattr(self, field), field, lo))
        if self.a0 is not None:
            positive_number(self.a0, "a0")  # kept as given
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


@dataclass(eq=False)
class RunRecord:
    """Everything a solve produced, JSON-ready via to_dict().

    restart_finals[r] is the best energy restart r saw, its start included,
    and best_energy == min(restart_finals).  traces is one read-only
    (restarts, max_iters) float64 array, row r holding restart r's energy
    after each iteration (nested lists in to_dict()).  With shots these are
    shot estimates, and best_energy, the lowest, reads low; exact_energy is
    the exact expectation of final_params.  best_energy_unscaled and
    best_objective are best_energy in unscaled and original units.  Records
    compare by identity; comparable_dict() is their value, without the
    informational wall_time_s.
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


def _start_vector(spec, domain, rng, initial_params) -> np.ndarray:
    """Restart starting angles: a uniform box draw (betas, then gammas) or the warm start."""
    p = spec.layers
    if initial_params is None:
        return np.concatenate([rng.uniform(*domain.beta_range, p), rng.uniform(*domain.gamma_range, p)])
    if not isinstance(initial_params, qaoa.QaoaParams):
        raise TypeError(f"initial_params must be a QaoaParams or None, got {type(initial_params).__name__}")
    angles = initial_params.as_vector()
    if angles.size != 2 * p:
        raise ValueError(f"initial_params has {angles.size // 2} layers, circuit has {p}")
    return angles


def _check_finite(values: np.ndarray, restarts, what: str) -> np.ndarray:
    """values if every entry is finite, else OptimizerDivergence naming restarts[i] for the first bad row i."""
    finite = np.isfinite(values).reshape(len(values), -1).all(axis=1)
    if not finite.all():
        raise OptimizerDivergence(f"restart {restarts[int(np.argmin(finite))]}: {what}; aborting")
    return values


def _restarts(spec, config: OptimizerConfig, domain, big_a: float, initial_params):
    """Every restart in lockstep: row r of each (R, 2p) array is restart r, on its [seed, r] stream.

    SPSA evaluates one batch of (R, 2p) blocks per iteration k, [x_k; x_k + c_k delta_k;
    x_k - c_k delta_k], so E(x_k) is read with iteration k's probe; the first batch also
    holds the five calibration probes (when a0 is None) before iteration 0's, and the
    last is x_K alone.  GD reads energy and gradient at every iterate it steps from and
    the energy alone at the last.  Every exact entry gets a lone restart's float
    operations.  With shots, restart r draws its start, the deltas of the first batch
    and that batch's samples in row order, then per iteration delta_k, E(x_k), E+, E-,
    and last E(x_K).  Returns the (R, max_iters) traces, the initial energies, each
    restart's best energy and vector, and SPSA's gains a0.
    """
    rows = np.arange(config.restarts)
    rngs = [np.random.default_rng([config.seed, r]) for r in rows]
    tanh, iters = config.squash == "tanh", config.max_iters

    def angles(vecs: np.ndarray) -> np.ndarray:
        """The circuit angles of raw optimizer rows."""
        return _squash(vecs, domain) if tanh else vecs

    def evaluate(batch: np.ndarray, gradient: bool = False):
        """Checked energies of (R, 2p) blocks of angle rows, shaped as the blocks, and, if asked, gradients."""
        flat = batch.reshape(-1, batch.shape[-1])
        restarts = np.resize(rows, len(flat))  # row i is restart i mod R
        g = None
        if gradient:
            e, g = qaoa.energy_and_gradient(spec, flat)
        elif config.shots > 0:
            e = qaoa.shot_energies(spec, flat, config.shots, [rngs[r] for r in restarts])
        else:
            e = qaoa.energies(spec, flat)
        return _check_finite(e, restarts, "non-finite energy encountered").reshape(batch.shape[:-1]), g

    def seen(k: int, e: np.ndarray):
        """E(x_k) of the iterates in vecs into trace column k - 1, keeping each restart's best."""
        traces[:, k - 1] = e
        better = e < best_e
        best_e[better], best_vecs[better] = e[better], vecs[better]

    vecs = np.array([_start_vector(spec, domain, rng, initial_params) for rng in rngs])
    if tanh:  # the optimizer works on raw values
        vecs = _unsquash(vecs, domain)
    traces = np.empty((rows.size, iters))
    a0 = None if config.a0 is None or config.method == "gd" else [config.a0] * rows.size
    if config.method == "gd":
        # GD reads a gradient at every iterate it steps from, so not at the last
        e0, g = evaluate(angles(vecs), iters > 0)
        best_e, best_vecs = e0.copy(), vecs.copy()
        for k in range(iters):
            _check_finite(g, rows, "non-finite gradient encountered")
            if tanh:
                g = g * _squash_jacobian(vecs, domain)
            vecs = _check_finite(vecs - GD_LEARNING_RATE * g, rows, "parameter vector diverged")
            e, g = evaluate(angles(vecs), k + 1 < iters)
            seen(k + 1, e)
    else:
        probes = 5 * (a0 is None) + (iters > 0)  # the first batch's: calibration, then iteration 0's
        for k in range(iters + 1):
            c = SPSA_C0 / (k + 1) ** SPSA_GAMMA_DECAY
            batch = np.empty((1 + 2 * probes,) + vecs.shape)
            batch[0] = angles(vecs)
            for j in range(probes):
                # Bernoulli +/-1 perturbations, one row per restart
                delta = np.array([rng.integers(0, 2, size=vecs.shape[1]) for rng in rngs]) * 2.0 - 1.0
                batch[2 * j + 1] = angles(vecs + c * delta)
                batch[2 * j + 2] = angles(vecs - c * delta)
            e, _ = evaluate(batch)
            del batch
            slopes = (e[1::2] - e[2::2]) / (2.0 * c)  # (E+ - E-)/2c, one row per probe
            if k > 0:
                seen(k, e[0])
            else:
                e0, best_e, best_vecs = e[0], e[0].copy(), vecs.copy()
                if a0 is None:
                    # pick a0 so the first step moves roughly 0.1 rad: a0 = 0.1 (A+1)^alpha / |g|
                    gmag = np.maximum(np.abs(slopes[:5]).mean(axis=0), 1e-3)
                    a0 = np.minimum(0.1 * (big_a + 1.0) ** SPSA_ALPHA / gmag, 50.0).tolist()
                gains = np.asarray(a0, dtype=float)
            if k < iters:
                step = (gains / (big_a + k + 1) ** SPSA_ALPHA)[:, None]
                # 1/delta_i == delta_i for Bernoulli +/-1 perturbations
                vecs = _check_finite(vecs - step * (slopes[-1][:, None] * delta), rows, "parameter vector diverged")
            probes = int(k + 1 < iters)  # iteration k + 1's probe, none with x_K
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

    Returns the best restart's best-seen iterate.  initial_params, a
    QaoaParams when given (anything else raises TypeError), warm-starts
    every restart from those angles instead of a random draw (restarts
    still perturb independently).  Raises SizeCapError, before allocating
    anything, past RUN_ENTRIES_CAP.
    """
    entries = config.restarts * (config.max_iters + 48 * spec.layers + 128)
    if entries > RUN_ENTRIES_CAP:
        raise SizeCapError(f"restarts x (max_iters + 48 layers + 128) must be <= {RUN_ENTRIES_CAP}, got {brief(entries)}")
    t_start = time.perf_counter()
    domain = qaoa.restricted_domain(spec)
    big_a = 0.1 * config.max_iters
    traces, initials, finals, vectors, a0s = _restarts(spec, config, domain, big_a, initial_params)
    best_r = int(np.argmin(finals))
    best = vectors[best_r]
    final_params = squash_params(best, domain) if config.squash == "tanh" else qaoa.QaoaParams.from_vector(best)
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
