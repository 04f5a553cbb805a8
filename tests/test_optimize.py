import copy
import dataclasses
import gc
import importlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from qaoaforge import qaoa
from qaoaforge import simulator as sim
from qaoaforge.errors import OptimizerDivergence
from qaoaforge.ising import SpinHamiltonian, qubo_to_spin
from qaoaforge.model import build_maxcut
from qaoaforge.optimize import (
    HISTOGRAM_MAX_ENTRIES,
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
    assert rec.traces == [[]]
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
    for r in range(3):
        assert len(rec.traces[r]) == config.max_iters  # every restart runs every iteration
        seen = [rec.initial_energies[r]] + rec.traces[r]
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
        with pytest.raises(OptimizerDivergence):
            optimize(spec, config)


@pytest.mark.parametrize("name, broken, fragment", [
    ("energy", lambda spec, params: math.nan, "non-finite energy"),
    ("parameter_shift_gradient", lambda spec, params: np.full(2 * params.p, math.inf), "non-finite gradient"),
])
def test_non_finite_energy_or_gradient_aborts(monkeypatch, name, broken, fragment):
    monkeypatch.setattr(qaoa, name, broken)
    with pytest.raises(OptimizerDivergence, match=fragment):
        optimize(c4_spec(layers=1), OptimizerConfig(method="gd", max_iters=5, restarts=1, seed=0))


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
        # the lowest of many noisy estimates reads low: -2.036 against -1.977
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


def test_record_memory_is_its_arrays():
    # an exact n = 12 record keeps all 4096 outcomes as two arrays (64 KiB),
    # not as a dict of boxed ints and floats
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
    assert retained <= 128 << 10, retained


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
