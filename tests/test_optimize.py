import copy
import dataclasses
import gc
import importlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from qaoaforge import dense, qaoa
from qaoaforge import simulator as sim
from qaoaforge.errors import OptimizerDivergence, SizeCapError
from qaoaforge.ising import SpinHamiltonian, diagonalize, qubo_to_spin, to_spin
from qaoaforge.model import build_knapsack, build_maxcut
from qaoaforge.optimize import (
    HISTOGRAM_MAX_ENTRIES,
    RUN_ENTRIES_CAP,
    Histogram,
    OptimizerConfig,
    optimize,
    squash_params,
)


# the package re-exports the function optimize() under the submodule's name
optimize_module = importlib.import_module("qaoaforge.optimize")


def c4_spec(layers=2):
    h = qubo_to_spin(build_maxcut(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    return qaoa.build_circuit(h, layers=layers)


def box_draw(domain, p, seed, restart):
    """A restart's random start: betas, then gammas, on its [seed, restart] stream."""
    rng = np.random.default_rng([seed, restart])
    beta = rng.uniform(domain.beta_range[0], domain.beta_range[1], p)
    gamma = rng.uniform(domain.gamma_range[0], domain.gamma_range[1], p)
    return beta, gamma


def test_squash_maps_into_boxes():
    even = qaoa.restricted_domain(c4_spec())
    odd = qaoa.restricted_domain(qaoa.build_circuit(SpinHamiltonian(2, {(0,): 1.0, (0, 1): 0.5})))
    assert even.gamma_range == (0.0, math.pi) and odd.gamma_range == (-math.pi, math.pi)
    # tanh saturates to exactly +/-1.0 past |x| ~ 19, so stay below that
    # to check the strict-interior property.
    xs = np.linspace(-15, 15, 101)
    for domain in (even, odd):
        inner = squash_params(np.concatenate([xs, xs]), domain)
        far = squash_params(np.array([-1e6, 1e6, -1e6, 1e6]), domain)
        for name, (lo, hi) in (("beta", domain.beta_range), ("gamma", domain.gamma_range)):
            angles = getattr(inner, name)
            assert (angles > lo).all() and (angles < hi).all()
            assert (np.diff(angles) > 0).all()
            saturated = getattr(far, name)
            assert (saturated >= lo).all() and (saturated <= hi).all()

    params = squash_params(np.array([0.0, 1.0, -1.0, 2.0]), odd)
    assert params.p == 2
    assert abs(params.beta[0] - math.pi / 2) < 1e-12
    assert abs(params.gamma[0] - math.pi * math.tanh(-1.0)) < 1e-12
    params = squash_params(np.array([0.0, 1.0, -1.0, 2.0]), even)
    assert abs(params.gamma[0] - (math.pi / 2) * (math.tanh(-1.0) + 1.0)) < 1e-12
    with pytest.raises(ValueError, match="even positive length"):
        squash_params(np.zeros(3), even)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(method="annealing")
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(squash="clip")
    for a0 in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            OptimizerConfig(a0=a0)
    OptimizerConfig(max_iters=0)  # zero iterations allowed


def test_config_a0_is_a_positive_real():
    # True would run with gain 1 and echo `a0: true`; "0.5" would fail inside math.isfinite
    for bad in (True, np.bool_(True), "0.5", [0.5], 0, -0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="^a0 must be a positive finite number, got "):
            OptimizerConfig(a0=bad)
    for good in (None, 0.5, 2, np.float32(0.25), np.int64(1)):
        assert OptimizerConfig(a0=good).a0 is good


def test_config_refuses_negative_seed():
    # numpy would refuse it later without naming the field
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        OptimizerConfig(seed=-1)
    OptimizerConfig(seed=0)


@pytest.mark.parametrize("field, lo", [("max_iters", 0), ("restarts", 1), ("seed", 0), ("shots", 0)])
def test_config_counts_are_whole_numbers(field, lo):
    # numpy would truncate 2.5 shots to 2 draws while the estimate divides by 2.5,
    # or fail later without naming the field
    for bad in (2.5, True, np.bool_(True), "3", math.nan, math.inf, None):
        with pytest.raises(ValueError, match=f"^{field} must be a whole number, got "):
            OptimizerConfig(**{field: bad})
    with pytest.raises(ValueError, match=f"^{field} must be >= {lo}, got {lo - 1}$"):
        OptimizerConfig(**{field: lo - 1})
    for whole in (lo + 3, float(lo + 3), np.int64(lo + 3), np.float32(lo + 3)):
        value = getattr(OptimizerConfig(**{field: whole}), field)
        assert value == lo + 3 and type(value) is int


def test_oversized_runs_are_refused_before_anything_is_allocated(monkeypatch):
    # traces, angle rows and generators grow with restarts x (max_iters + 48 p + 128)
    monkeypatch.setattr(optimize_module, "_restarts", None)
    for layers, config in ((1, OptimizerConfig(max_iters=2_000_000_000)),
                           (10 ** 12, OptimizerConfig()),
                           (1, OptimizerConfig(restarts=10 ** 11, method="gd")),
                           (1, OptimizerConfig(max_iters=RUN_ENTRIES_CAP - 48 - 127, restarts=1))):
        spec = c4_spec(layers=layers)
        with pytest.raises(SizeCapError, match=f"must be <= {RUN_ENTRIES_CAP}, got "):
            optimize(spec, config)
    monkeypatch.undo()
    assert optimize(c4_spec(layers=1), OptimizerConfig(max_iters=3, restarts=2)).traces.shape == (2, 3)


def test_size_caps_refuse_huge_ints_by_name():
    # an int over 4300 digits passes whole_number; each cap still refuses it as
    # SizeCapError, printing its size, where str() of it raised ValueError
    big = 10 ** 5000
    spec = c4_spec(layers=1)
    calls = {
        r"restarts x \(max_iters \+ 48 layers \+ 128\) must be <= \d+, got": lambda: optimize(
            spec, OptimizerConfig(max_iters=big)),
        r"scan resolution must be <= \d+, got": lambda: qaoa.landscape_scan(spec, big),
        r"qubit count must be in \[1, \d+\], got": lambda: sim.init_plus(big),
        r"diagonal table needs n <= \d+, got n =": lambda: diagonalize(SpinHamiltonian(big, {(0,): 1.0})),
        r"dense oracle needs 1 <= n <= \d+, got": lambda: dense.operator_of(sim.init_plus, big),
    }
    for message, call in calls.items():
        with pytest.raises(SizeCapError, match=rf"^{message} an int of 166\d\d bits$"):
            call()


@pytest.mark.parametrize("squash", ["none", "tanh"])
def test_run_memory_is_within_its_cap_accounting(squash):
    # at many layers the angle rows are the run: SPSA's first batch (x_0, five calibration
    # probes and iteration 0's, 13 rows of 2p), the later 3-row batches and GD's rows stay
    # inside the max_iters + 48 p + 128 entries a restart is charged against RUN_ENTRIES_CAP
    optimize(c4_spec(layers=1), OptimizerConfig(max_iters=1, restarts=1, squash=squash))  # one-time allocations
    layers = 500
    spec = c4_spec(layers=layers)
    for config in (OptimizerConfig(max_iters=0, restarts=1, squash=squash),
                   OptimizerConfig(max_iters=2, restarts=1, squash=squash),
                   OptimizerConfig(max_iters=2, restarts=2, squash=squash),
                   OptimizerConfig(max_iters=1, restarts=1, squash=squash, method="gd")):
        tracemalloc.start()
        try:
            optimize(spec, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        charged = 8 * config.restarts * (config.max_iters + 48 * layers + 128)
        assert peak <= charged, (config, peak / charged)


def test_records_compare_by_identity():
    # traces is an array, so a field-by-field == would raise numpy's ambiguous-truth ValueError
    spec = c4_spec(layers=1)
    config = OptimizerConfig(max_iters=4, restarts=2, seed=0)
    rec, twin = optimize(spec, config), optimize(spec, config)
    assert rec == rec and rec != twin and rec in [rec] and twin not in [rec]
    assert rec.comparable_dict() == twin.comparable_dict()


def test_init_params_deterministic_and_in_box():
    spec = c4_spec(layers=3)
    domain = qaoa.restricted_domain(spec)
    # with zero iterations the record's angles are the best restart's start
    config = OptimizerConfig(max_iters=0, restarts=4, seed=4)
    rec = optimize(spec, config)
    assert rec.comparable_dict() == optimize(spec, config).comparable_dict()
    assert len(set(rec.initial_energies)) == 4
    assert rec.best_restart != 0  # so a stream past [seed, 0] is checked
    want_beta, want_gamma = box_draw(domain, 3, seed=4, restart=rec.best_restart)
    beta, gamma = np.array(rec.final_params["beta"]), np.array(rec.final_params["gamma"])
    assert np.array_equal(beta, want_beta) and np.array_equal(gamma, want_gamma)
    assert ((beta >= domain.beta_range[0]) & (beta <= domain.beta_range[1])).all()
    assert ((gamma >= domain.gamma_range[0]) & (gamma <= domain.gamma_range[1])).all()


def test_zero_iterations_returns_initial_point():
    spec = c4_spec()
    config = OptimizerConfig(method="spsa", max_iters=0, restarts=1, seed=5)
    rec = optimize(spec, config)
    assert rec.traces.shape == (1, 0) and rec.traces.dtype == np.float64
    assert rec.to_dict()["traces"] == [[]]
    assert rec.best_energy == rec.initial_energies[0]
    beta, gamma = box_draw(qaoa.restricted_domain(spec), 2, seed=5, restart=0)
    assert np.allclose(rec.final_params["beta"], beta)
    assert np.allclose(rec.final_params["gamma"], gamma)


def test_spsa_improves_and_keeps_invariants():
    spec = c4_spec()
    config = OptimizerConfig(method="spsa", max_iters=200, restarts=3, seed=2)
    rec = optimize(spec, config)
    assert rec.best_energy < min(rec.initial_energies)
    assert rec.best_energy == min(rec.restart_finals)
    assert rec.best_restart == int(np.argmin(rec.restart_finals))
    assert rec.traces.shape == (3, 200) and not rec.traces.flags.writeable
    for r in range(3):
        assert len(rec.traces[r]) == config.max_iters  # every restart runs every iteration
        seen = np.concatenate(([rec.initial_energies[r]], rec.traces[r]))
        assert abs(rec.restart_finals[r] - min(seen)) < 1e-15
    assert rec.method == "spsa"
    assert rec.config["A_resolved"] == 20.0
    assert len(rec.config["a0_resolved"]) == 3


def test_gd_decreases_energy():
    spec = c4_spec(layers=1)
    config = OptimizerConfig(method="gd", max_iters=120, restarts=2, seed=1)
    rec = optimize(spec, config)
    assert rec.best_energy < min(rec.initial_energies)
    assert rec.method == "gd"
    assert rec.exact_energy == rec.best_energy


def test_gd_requires_exact_mode():
    with pytest.raises(ValueError, match="shots=0"):
        OptimizerConfig(method="gd", shots=100)
    OptimizerConfig(method="spsa", shots=100)


def test_gd_divergence_detected(monkeypatch):
    spec = c4_spec(layers=1)
    monkeypatch.setattr(optimize_module, "GD_LEARNING_RATE", math.inf)
    config = OptimizerConfig(method="gd", max_iters=5, restarts=1, seed=0)
    with np.errstate(invalid="ignore"):
        with pytest.raises(OptimizerDivergence, match="^restart 0: parameter vector diverged; aborting$"):
            optimize(spec, config)


@pytest.mark.parametrize("name, broken, fragment", [
    ("energy", lambda values: values * math.nan, "non-finite energy"),
    ("grad", lambda values: values + math.inf, "non-finite gradient"),
])
def test_non_finite_energy_or_gradient_aborts(monkeypatch, name, broken, fragment):
    # GD reads each iterate's rows from energy_and_gradient and the last iterate's energies
    # from qaoa.energies, so the named half breaks wherever GD reads it
    real, real_energies, half = qaoa.energy_and_gradient, qaoa.energies, ("energy", "grad").index(name)

    def energy_and_gradient(spec, angles):
        both = list(real(spec, angles))
        both[half] = broken(both[half])
        return tuple(both)

    if name == "energy":
        monkeypatch.setattr(qaoa, "energies", lambda spec, angles: broken(real_energies(spec, angles)))
    monkeypatch.setattr(qaoa, "energy_and_gradient", energy_and_gradient)
    with pytest.raises(OptimizerDivergence, match=fragment):
        optimize(c4_spec(layers=1), OptimizerConfig(method="gd", max_iters=5, restarts=1, seed=0))


def gd_reference(spec, config):
    """GD restarts at two evolutions per iterate: qaoa.energy, then energy_and_gradient's gradient.

    Returns each restart's trace, initial energy, best energy and its vector.
    """
    domain = qaoa.restricted_domain(spec)
    tanh = config.squash == "tanh"
    decode = (lambda v: squash_params(v, domain)) if tanh else qaoa.QaoaParams.from_vector
    restarts = []
    for r in range(config.restarts):
        vec = np.concatenate(box_draw(domain, spec.layers, config.seed, r))
        if tanh:
            vec = optimize_module._unsquash(vec, domain)
        e0 = qaoa.energy(spec, decode(vec))
        best, trace = (e0, vec), []
        for _ in range(config.max_iters):
            g = qaoa.energy_and_gradient(spec, decode(vec).as_vector()[None])[1][0]
            if tanh:
                g = g * optimize_module._squash_jacobian(vec, domain)
            vec = vec - optimize_module.GD_LEARNING_RATE * g
            trace.append(qaoa.energy(spec, decode(vec)))
            if trace[-1] < best[0]:
                best = (trace[-1], vec)
        restarts.append((trace, e0, *best))
    return restarts, decode


def spsa_reference(spec, config, initial_params=None):
    """SPSA restarts one at a time, each point through qaoa.energy or sim.sample of qaoa.run.

    Restart r draws from default_rng([seed, r]) in order: the start vector; the first
    batch's deltas (five calibration probes when a0 is None, then iteration 0's probe)
    and its samples, E(x_0) and then E+, E- of each probe; per later iteration k its
    delta, E(x_k), E+, E-; and last E(x_K).  Returns each restart's trace, initial
    energy, best energy, its vector and a0.
    """
    domain = qaoa.restricted_domain(spec)
    tanh = config.squash == "tanh"
    decode = (lambda v: squash_params(v, domain)) if tanh else qaoa.QaoaParams.from_vector
    big_a, p, iters = 0.1 * config.max_iters, spec.layers, config.max_iters
    restarts = []
    for r in range(config.restarts):
        rng = np.random.default_rng([config.seed, r])

        def objective(vec):
            if config.shots:
                return sim.sample(qaoa.run(spec, decode(vec)), config.shots, rng) @ spec.energies / config.shots
            return qaoa.energy(spec, decode(vec))

        def draw():
            return rng.integers(0, 2, size=2 * p) * 2.0 - 1.0

        def slope(vec, k, delta):
            c = optimize_module.SPSA_C0 / (k + 1) ** optimize_module.SPSA_GAMMA_DECAY
            e_plus = objective(vec + c * delta)
            e_minus = objective(vec - c * delta)
            return (e_plus - e_minus) / (2.0 * c)

        if initial_params is None:
            beta = rng.uniform(domain.beta_range[0], domain.beta_range[1], p)
            gamma = rng.uniform(domain.gamma_range[0], domain.gamma_range[1], p)
            vec = np.concatenate([beta, gamma])
        else:
            vec = initial_params.as_vector()
        if tanh:
            vec = optimize_module._unsquash(vec, domain)
        deltas = [draw() for _ in range(5 * (config.a0 is None) + (iters > 0))]
        e0 = objective(vec)
        slopes = [slope(vec, 0, delta) for delta in deltas]
        a0 = config.a0
        if a0 is None:
            gmag = max(float(np.mean([abs(s) for s in slopes[:5]])), 1e-3)
            a0 = min(0.1 * (big_a + 1.0) ** optimize_module.SPSA_ALPHA / gmag, 50.0)
        best, trace = (e0, vec), []
        for k in range(iters):
            step = a0 / (big_a + k + 1) ** optimize_module.SPSA_ALPHA
            vec = vec - step * (slopes[-1] * deltas[-1])
            deltas = [draw()] if k + 1 < iters else []
            trace.append(objective(vec))
            slopes = [slope(vec, k + 1, delta) for delta in deltas]
            if trace[-1] < best[0]:
                best = (trace[-1], vec)
        restarts.append((trace, e0, *best, a0))
    return restarts, decode


def knapsack_spec(layers=2):
    # odd-degree terms, so gamma keeps the full (-pi, pi) range
    problem = build_knapsack((4, 4, 2), (3, 1, 2), 4, p1=1.0, p2=0.25)
    return qaoa.build_circuit(to_spin(problem), layers=layers)


@pytest.mark.parametrize("squash, a0, shots, warm", [
    ("none", None, 0, False),
    ("tanh", None, 0, False),
    ("none", 0.3, 0, False),
    ("tanh", 0.3, 200, False),
    ("none", None, 200, False),
    ("none", None, 0, True),
    ("tanh", None, 200, True),
])
def test_spsa_record_equals_sequential_reference(squash, a0, shots, warm):
    # lockstep restarts give the numbers of restarts run one at a time, bit for bit;
    # the 8-vertex spec runs U_f through its level table
    ring8 = build_maxcut(8, [(i, (i + 1) % 8) for i in range(8)] + [(0, 4), (2, 6)])
    start = qaoa.QaoaParams(beta=[0.3, 0.4], gamma=[0.5, 0.6]) if warm else None
    for spec in (c4_spec(), knapsack_spec(), qaoa.build_circuit(qubo_to_spin(ring8), layers=2)):
        config = OptimizerConfig(max_iters=12, restarts=3, seed=11, squash=squash, a0=a0, shots=shots)
        rec = optimize(spec, config, initial_params=start)
        restarts, decode = spsa_reference(spec, config, start)
        traces, initials, finals, vectors, a0s = (list(x) for x in zip(*restarts))
        assert rec.traces.shape == (3, 12) and np.array_equal(rec.traces, traces)
        assert rec.initial_energies == initials
        assert rec.restart_finals == finals
        assert rec.config["a0_resolved"] == a0s
        best = decode(vectors[int(np.argmin(finals))])
        assert rec.final_params == {"beta": best.beta.tolist(), "gamma": best.gamma.tolist()}
    assert not qaoa.restricted_domain(knapsack_spec()).fully_restricted
    assert spec.level_table is not None


def test_spsa_evaluates_each_step_as_one_batch(monkeypatch):
    # SPSA: one call per iteration k on x_k and its probe's E+ over E- (3R rows); the
    # first also holds five calibration probes of 2R rows, the last is x_K alone (R rows),
    # through qaoa.energies or, with shots, qaoa.shot_energies; GD: energy_and_gradient at
    # every iterate it steps from and qaoa.energies at the last.  The final histogram's
    # run is the one other call.
    calls = []
    for name in ("energies", "shot_energies", "energy_and_gradient", "energy", "run"):
        real = getattr(qaoa, name)
        monkeypatch.setattr(qaoa, name, lambda spec, x, *a, name=name, real=real:
                            calls.append((name, len(x) if name not in ("energy", "run") else 1)) or real(spec, x, *a))
    for restarts, iters in ((1, 0), (1, 1), (3, 4), (4, 2)):
        for shots, spsa in ((0, "energies"), (50, "shot_energies")):
            for a0 in (None, 0.5):
                calls.clear()
                optimize(c4_spec(), OptimizerConfig(max_iters=iters, restarts=restarts, seed=1, a0=a0, shots=shots))
                first = restarts + 10 * restarts * (a0 is None)
                if iters == 0:
                    rows = [first]
                else:
                    rows = [first + 2 * restarts] + [3 * restarts] * (iters - 1) + [restarts]
                assert calls == [(spsa, b) for b in rows] + [("run", 1)]
        for squash in ("none", "tanh"):
            calls.clear()
            optimize(c4_spec(), OptimizerConfig(method="gd", max_iters=iters, restarts=restarts, seed=1, squash=squash))
            steps = [("energy_and_gradient", restarts)] * iters
            assert calls == steps + [("energies", restarts), ("run", 1)]


@pytest.mark.parametrize("call, row, restart", [
    (0, 1, 1),    # a start point
    (0, 8, 2),    # E- of the first calibration probe, rows 2R..3R-1
    (0, 33, 0),   # E+ of iteration 0's probe, after the start and ten calibration blocks
    (1, 2, 2),    # the first new iterates, ahead of iteration 1's probe
])
def test_divergence_names_its_restart(monkeypatch, call, row, restart):
    real, calls = qaoa.energies, []

    def energies(spec, angles):
        e = real(spec, angles)
        if len(calls) == call:
            e[row] = math.nan
        calls.append(len(angles))
        return e

    monkeypatch.setattr(qaoa, "energies", energies)
    message = f"^restart {restart}: non-finite energy encountered; aborting$"
    with pytest.raises(OptimizerDivergence, match=message):
        optimize(c4_spec(), OptimizerConfig(max_iters=3, restarts=3, seed=0))
    assert len(calls) == call + 1


@pytest.mark.parametrize("squash", ["none", "tanh"])
def test_gd_record_equals_two_evolution_reference(squash):
    # one energy_and_gradient per iterate gives the very numbers of a separate energy()
    # and gradient evolution; the 8-vertex spec runs U_f through its level table
    ring8 = build_maxcut(8, [(i, (i + 1) % 8) for i in range(8)] + [(0, 4), (2, 6)])
    for spec in (c4_spec(layers=2), qaoa.build_circuit(qubo_to_spin(ring8), layers=2)):
        config = OptimizerConfig(method="gd", max_iters=6, restarts=3, seed=8, squash=squash)
        rec = optimize(spec, config)
        restarts, decode = gd_reference(spec, config)
        traces, initials, finals, vectors = (list(x) for x in zip(*restarts))
        assert rec.traces.shape == (3, 6) and np.array_equal(rec.traces, traces)
        assert rec.initial_energies == initials
        assert rec.restart_finals == finals
        best = decode(vectors[int(np.argmin(finals))])
        assert rec.final_params == {"beta": best.beta.tolist(), "gamma": best.gamma.tolist()}
    assert spec.level_table is not None


def test_gd_evolves_once_per_iterate(monkeypatch):
    # per restart max_iters energy_and_gradient rows and the last energies row, then the final histogram
    init_plus, calls = sim.init_plus, []
    monkeypatch.setattr(sim, "init_plus", lambda n, rows=None: calls.extend([1] * (rows or 1)) or init_plus(n, rows))
    for restarts, iters in ((1, 0), (2, 5), (3, 4)):
        calls.clear()
        optimize(c4_spec(), OptimizerConfig(method="gd", max_iters=iters, restarts=restarts, seed=2))
        assert len(calls) == restarts * (iters + 1) + 1


@pytest.mark.parametrize("shots", [0, 2000])
def test_record_energy_units_agree(shots):
    spec = c4_spec(layers=1)
    assert spec.k_scale != 1.0 and spec.constant != 0.0
    config = OptimizerConfig(method="spsa", max_iters=30, restarts=2, seed=3, shots=shots)
    rec = optimize(spec, config)
    assert rec.best_energy_unscaled == rec.best_energy * spec.k_scale
    assert rec.best_objective == spec.objective(rec.best_energy)
    assert rec.best_objective == rec.best_energy_unscaled + spec.constant
    assert rec.exact_energy == qaoa.energy(spec, qaoa.QaoaParams(**rec.final_params))
    if shots:
        # the lowest of many noisy estimates reads low: -2.018 against -1.958
        assert rec.best_energy < rec.exact_energy - 0.05
    else:
        assert rec.exact_energy == rec.best_energy


def test_warm_start_used_by_every_restart():
    spec = c4_spec()
    start = qaoa.QaoaParams(beta=[0.3, 0.4], gamma=[0.5, 0.6])
    e_start = qaoa.energy(spec, start)
    config = OptimizerConfig(method="spsa", max_iters=10, restarts=3, seed=0)
    rec = optimize(spec, config, initial_params=start)
    assert all(abs(e - e_start) < 1e-12 for e in rec.initial_energies)
    assert rec.best_energy <= e_start
    with pytest.raises(ValueError):
        optimize(spec, config, initial_params=qaoa.QaoaParams([0.1], [0.2]))
    for bare in ([0.3, 0.4, 0.5, 0.6], start.as_vector()):  # refused by name, not by an AttributeError
        with pytest.raises(TypeError, match="initial_params must be a QaoaParams"):
            optimize(spec, config, initial_params=bare)


def test_histogram_argmax_prefers_lowest_index_on_ties():
    spec = c4_spec(layers=1)
    flat = qaoa.QaoaParams([0.0], [0.0])  # uniform state, all 16 outcomes tie
    config = OptimizerConfig(method="spsa", max_iters=0, restarts=1, seed=0)
    rec = optimize(spec, config, initial_params=flat)
    assert rec.best_basis_index == 0
    assert rec.best_bitstring == "1111"
    assert rec.histogram_mode == "exact"
    assert abs(sum(rec.histogram.values()) - 1.0) < 1e-12


def test_histogram_entry_cap():
    h = SpinHamiltonian(13, {(i,): 1.0 for i in range(13)})
    spec = qaoa.build_circuit(h)
    config = OptimizerConfig(method="spsa", max_iters=0, restarts=1, seed=0)
    rec = optimize(spec, config)
    assert len(rec.histogram) == HISTOGRAM_MAX_ENTRIES


def test_exact_histogram_keeps_largest_probabilities():
    # the ring's spin-flip symmetry pairs equal probabilities, and some tie at the cut
    ring = build_maxcut(14, [(i, (i + 1) % 14) for i in range(14)])
    spec = qaoa.build_circuit(qubo_to_spin(ring), layers=1)
    rec = optimize(spec, OptimizerConfig(method="spsa", max_iters=0, restarts=1, seed=0))
    probs = qaoa.run(spec, qaoa.QaoaParams(**rec.final_params)).probabilities().tolist()
    ranked = sorted(range(len(probs)), key=lambda z: (-probs[z], z))
    assert probs[ranked[HISTOGRAM_MAX_ENTRIES - 1]] == probs[ranked[HISTOGRAM_MAX_ENTRIES]]
    kept = sorted(ranked[:HISTOGRAM_MAX_ENTRIES])
    assert rec.histogram_mode == "exact"
    assert list(rec.histogram) == kept
    assert rec.histogram == {z: probs[z] for z in kept}


def test_counts_histogram_keeps_largest_counts():
    # 50,000 shots of a 13-qubit state land on more than 4096 outcomes
    h = SpinHamiltonian(13, {(i,): 1.0 if i % 2 else 0.5 for i in range(13)})
    spec = qaoa.build_circuit(h)
    config = OptimizerConfig(method="spsa", max_iters=0, restarts=1, seed=4, shots=50_000)
    rec = optimize(spec, config)
    params = qaoa.QaoaParams(**rec.final_params)
    rng = np.random.default_rng([config.seed, config.restarts])
    counts = sim.sample(qaoa.run(spec, params), config.shots, rng).tolist()
    hot = [z for z, c in enumerate(counts) if c > 0]
    assert len(hot) > HISTOGRAM_MAX_ENTRIES
    ranked = sorted(hot, key=lambda z: (-counts[z], z))
    kept = sorted(ranked[:HISTOGRAM_MAX_ENTRIES])
    # the cut falls inside a run of equal counts, so the tie rule decides
    assert counts[ranked[HISTOGRAM_MAX_ENTRIES - 1]] == counts[ranked[HISTOGRAM_MAX_ENTRIES]]
    assert rec.histogram_mode == "counts"
    assert list(rec.histogram) == kept
    assert rec.histogram == {z: counts[z] for z in kept}
    assert rec.best_basis_index == counts.index(max(counts))


def test_shots_mode_histogram():
    spec = c4_spec(layers=1)
    config = OptimizerConfig(method="spsa", max_iters=30, restarts=2, seed=3, shots=2000)
    rec = optimize(spec, config)
    assert rec.histogram_mode == "counts"
    assert sum(rec.histogram.values()) == 2000
    rec2 = optimize(spec, config)
    assert rec.comparable_dict() == rec2.comparable_dict()


def test_run_record_serializes():
    spec = c4_spec(layers=1)
    rec = optimize(spec, OptimizerConfig(method="spsa", max_iters=5, restarts=1, seed=0))
    payload = json.dumps(rec.to_dict())
    round_tripped = json.loads(payload)
    assert round_tripped["best_bitstring"] == rec.best_bitstring
    assert all(isinstance(k, str) for k in round_tripped["histogram"])


def test_histogram_mapping_contract():
    spec = c4_spec(layers=1)
    for shots in (0, 500):
        config = OptimizerConfig(method="spsa", max_iters=5, restarts=1, seed=2, shots=shots)
        rec = optimize(spec, config)
        psi = qaoa.run(spec, qaoa.QaoaParams(**rec.final_params))
        if shots:
            rng = np.random.default_rng([config.seed, config.restarts])
            counts = sim.sample(psi, shots, rng).tolist()
            as_dict = {z: c for z, c in enumerate(counts) if c > 0}
            value_type = int
        else:
            as_dict = dict(enumerate(psi.probabilities().tolist()))
            value_type = float
        hist = rec.histogram
        assert hist == as_dict and as_dict == hist
        assert repr(hist) == f"Histogram({as_dict!r})"
        assert list(hist) == sorted(as_dict) and list(hist.items()) == list(as_dict.items())
        assert all(type(z) is int for z in hist)
        assert all(type(v) is value_type for v in hist.values())
        assert all(type(hist[z]) is value_type for z in as_dict)
        for missing in (16, -1, "3", 1.5):
            with pytest.raises(KeyError):
                hist[missing]
        assert hist.get(16) is None and 16 not in hist
        with pytest.raises(TypeError):
            hist[0] = 1.0
        assert copy.deepcopy(rec).comparable_dict() == rec.comparable_dict()
        assert dataclasses.asdict(rec)["histogram"] == as_dict
        assert json.loads(json.dumps(rec.to_dict()))["histogram"] == {str(z): v for z, v in as_dict.items()}


def test_histogram_with_implicit_keys():
    # a full exact histogram holds its probabilities alone, keyed 0..2^n - 1, and reads as
    # the same dict as one holding its keys
    n = 2
    values = np.array([0.5, 0.25, 0.125, 0.125])
    hist, keyed = Histogram(None, values), Histogram(np.arange(1 << n), values.copy())
    as_dict = dict(enumerate(values.tolist()))
    assert hist == as_dict and as_dict == hist and hist == keyed
    assert hist[2] == 0.125 and type(hist[np.int64(1)]) is float
    for missing in (-1, 1 << n, 1.5, "a", 10**40):
        with pytest.raises(KeyError):
            hist[missing]
        assert missing not in hist and missing not in keyed
    assert len(hist) == 1 << n and list(hist) == [0, 1, 2, 3] and all(type(z) is int for z in hist)
    assert repr(hist) == repr(keyed) == f"Histogram({as_dict!r})"
    with pytest.raises(ValueError, match="read-only"):
        values[0] = 1.0


def test_histogram_views_read_the_arrays_once():
    # items() and values() iterate the arrays in one pass, where Mapping's views look up
    # every key, and still behave as those views: length, membership, order, set operations
    class Counting(Histogram):
        lookups = 0

        def __getitem__(self, key):
            Counting.lookups += 1
            return super().__getitem__(key)

    for hist in (Histogram(np.array([1, 4, 6]), np.array([0.25, 0.5, 0.25])),
                 Histogram(None, np.array([0.5, 0.25, 0.125, 0.125])),
                 Histogram(np.array([0, 3]), np.array([7, 3]))):
        per_key = [(z, hist[z]) for z in hist]
        items, values = hist.items(), hist.values()
        assert list(items) == per_key and list(values) == [v for _, v in per_key]
        assert [type(v) for v in values] == [type(v) for _, v in per_key]
        assert len(items) == len(values) == len(hist) == len(per_key)
        z, v = per_key[-1]
        assert (z, v) in items and (z, v + 1) not in items and (99, v) not in items
        assert v in values and -1 not in values
        assert items == dict(per_key).items() and items & {(z, v), (99, 0)} == {(z, v)}
        assert items - {(z, v)} == set(per_key[:-1]) and items | {(99, 0)} == set(per_key) | {(99, 0)}
        spy = Counting(hist._keys, hist._values)
        assert dict(spy.items()) == dict(per_key) and list(spy.values()) == list(values)
        assert repr(spy) == f"Counting({dict(per_key)!r})" and Counting.lookups == 0


def test_exact_histogram_memory_is_its_probabilities():
    # an exact n = 12 record keeps all 4096 outcomes as one float64 array, keyed implicitly
    n = 12
    ring = build_maxcut(n, [(i, (i + 1) % n) for i in range(n)])
    spec = qaoa.build_circuit(qubo_to_spin(ring))
    tracemalloc.start()
    try:
        rec = optimize(spec, OptimizerConfig(method="spsa", max_iters=2, restarts=1, seed=0))
        gc.collect()
        with_histogram, _ = tracemalloc.get_traced_memory()
        hist, rec.histogram = rec.histogram, None
        del hist
        gc.collect()
        without, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert with_histogram - without <= 8 * (1 << n) + 1024, with_histogram - without


def test_record_memory_is_its_arrays():
    # an exact n = 12 record keeps all 4096 outcomes as one array of probabilities
    # (32 KiB), not as a dict of boxed ints and floats
    ring = build_maxcut(12, [(i, (i + 1) % 12) for i in range(12)])
    spec = qaoa.build_circuit(qubo_to_spin(ring), layers=2)
    config = OptimizerConfig(method="spsa", max_iters=20, restarts=2, seed=0)
    optimize(spec, config)
    tracemalloc.start()
    try:
        rec = optimize(spec, config)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rec.histogram) == 4096
    assert retained <= 64 << 10, retained


def test_best_cost_consistent_with_histogram_argmax():
    spec = c4_spec()
    rec = optimize(spec, OptimizerConfig(method="spsa", max_iters=300, restarts=4, seed=1))
    z = rec.best_basis_index
    want = float(spec.energies[z] * spec.k_scale + spec.constant)
    assert rec.best_cost == want
    # the returned best string encodes that same basis index
    bits = tuple(int(ch) for ch in rec.best_bitstring)
    packed = sum((1 - b) << i for i, b in enumerate(bits))
    assert packed == z


def test_tanh_squash_run_stays_in_domain():
    spec = c4_spec()
    config = OptimizerConfig(method="spsa", max_iters=100, restarts=2, seed=6, squash="tanh")
    rec = optimize(spec, config)
    dom = qaoa.restricted_domain(spec)
    beta = np.array(rec.final_params["beta"])
    gamma = np.array(rec.final_params["gamma"])
    assert ((beta >= dom.beta_range[0]) & (beta <= dom.beta_range[1])).all()
    assert ((gamma >= dom.gamma_range[0]) & (gamma <= dom.gamma_range[1])).all()
    # the record's angles are the squash of the winning raw vector, so their exact energy is the best seen
    assert rec.exact_energy == rec.best_energy
