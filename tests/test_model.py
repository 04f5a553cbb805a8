import copy
import json
import math
import re

import numpy as np
import pytest

from qaoaforge import dense, model, qaoa, verify
from qaoaforge import simulator as sim
from qaoaforge.errors import ProblemFormatError, SizeCapError
from qaoaforge.ising import SpinHamiltonian, assignment_of_basis_index, diagonalize, scale, to_spin
from qaoaforge.model import (
    ConstraintKind,
    ConstraintSpec,
    PuboProblem,
    QuboProblem,
    apply_penalty,
    brief,
    brute_force_solve,
    build_knapsack,
    build_maxcut,
    build_pubo,
    build_qubo,
    evaluate_pubo,
    evaluate_qubo,
    load_problem,
    positive_number,
    problem_from_dict,
)
from qaoaforge.optimize import OptimizerConfig, squash_params
from qaoaforge.qaoa import build_circuit, landscape_scan


def zero_qubo(n):
    return build_qubo(np.zeros((n, n)), np.zeros(n))


def test_build_qubo_symmetrizes():
    q = build_qubo([[1.0, 4.0], [0.0, 2.0]], [0.5, -0.5])
    assert np.allclose(q.Q, [[1.0, 2.0], [2.0, 2.0]])
    assert np.allclose(q.c, [0.5, -0.5])
    assert q.offset == 0.0


def test_qubo_evaluation_matches_matrix_form():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        Q = rng.normal(size=(n, n))
        c = rng.normal(size=n)
        off = float(rng.normal())
        p = build_qubo(Q, c, offset=off)
        x = rng.integers(0, 2, n).astype(float)
        want = float(x @ ((Q + Q.T) / 2.0) @ x + c @ x + off)
        assert abs(evaluate_qubo(p, x) - want) < 1e-12


def test_qubo_validation():
    with pytest.raises(ValueError):
        build_qubo(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        build_qubo([[np.nan]], [0.0])
    with pytest.raises(ValueError, match="Q must be 2x2"):
        QuboProblem(n=2, Q=np.zeros((3, 3)), c=np.zeros(2))
    with pytest.raises(ValueError, match="c must have length 2"):
        QuboProblem(n=2, Q=np.zeros((2, 2)), c=np.zeros(3))
    with pytest.raises(ValueError, match="symmetric"):
        QuboProblem(n=2, Q=[[0.0, 1.0], [0.0, 0.0]], c=np.zeros(2))
    p = zero_qubo(2)
    with pytest.raises(Exception):
        p.Q[0, 0] = 5.0  # arrays are read-only


def test_build_pubo_canonicalization():
    p = build_pubo(3, [((1, 0), 2.0), ((0, 1), 1.0), ((2, 2, 0), 4.0), ((), 7.0), ((1,), 0.0)])
    # merged permutations, squared index collapsed, empty key into offset,
    # zero coefficients dropped, keys sorted by (degree, indices)
    assert p.terms == {(0, 1): 3.0, (0, 2): 4.0}
    assert p.offset == 7.0
    assert list(p.terms) == sorted(p.terms, key=lambda k: (len(k), k))
    assert p.degree == 2


@pytest.mark.parametrize("terms, offset, fragment", [
    ({(): 1.0}, 0.0, "non-empty"), ({(1, 0): 1.0}, 0.0, "strictly increasing"),
    ({(0, 0): 1.0}, 0.0, "strictly increasing"), ({(2,): 1.0}, 0.0, "inside [0, 2)"),
    ({(5,): 1.0}, 0.0, "inside [0, 2)"), ({(-1,): 1.0}, 0.0, "inside [0, 2)"),
    ({(0, 1): float("nan")}, 0.0, "coefficients must be finite"),
    ({(0,): float("inf")}, 0.0, "coefficients must be finite"),
    ({(0,): 1.0}, float("nan"), "offset must be finite"), ({(0,): 1.0}, -float("inf"), "offset must be finite"),
])
def test_pubo_problem_validates_itself(terms, offset, fragment):
    # a bad key or a non-finite value is refused at construction, not by a later IndexError
    with pytest.raises(ValueError, match=re.escape(fragment)):
        PuboProblem(n=2, terms=terms, offset=offset)


def test_build_pubo_refuses_non_finite_coefficients():
    # a non-finite entry is refused as it is read, a merged sum that overflows by PuboProblem
    for items, field in (([((0,), float("nan"))], "term coef"), ([((0, 1), float("inf"))], "term coef"),
                         ([((0,), 1e308), ((0,), 1e308)], "term coefficients")):
        with pytest.raises(ValueError, match=f"^{field} must be finite and a number, got "):
            build_pubo(2, items)


def test_pubo_evaluation():
    p = build_pubo(3, [((0, 1, 2), 8.0), ((1,), -1.0)], offset=0.5)
    assert evaluate_pubo(p, (1, 1, 1)) == 7.5
    assert evaluate_pubo(p, (1, 0, 1)) == 0.5
    assert evaluate_pubo(p, (0, 1, 1)) == -0.5


def test_pair_penalties_zero_iff_feasible():
    tables = {
        ConstraintKind.AT_MOST_ONE_PAIR: {(0, 0): 0, (1, 0): 0, (0, 1): 0, (1, 1): 1},
        ConstraintKind.AT_LEAST_ONE_PAIR: {(0, 0): 1, (1, 0): 0, (0, 1): 0, (1, 1): 0},
        ConstraintKind.EQUAL_PAIR: {(0, 0): 0, (1, 0): 1, (0, 1): 1, (1, 1): 0},
    }
    for kind, table in tables.items():
        pen = apply_penalty(zero_qubo(2), ConstraintSpec(kind, (0, 1)))
        for x, want in table.items():
            assert evaluate_qubo(pen, x) == float(want), (kind, x)
        # scaling by the weight
        pen3 = apply_penalty(zero_qubo(2), ConstraintSpec(kind, (0, 1), p1=3.0))
        for x, want in table.items():
            assert evaluate_qubo(pen3, x) == 3.0 * want


def test_at_most_one_set_penalty():
    pen = apply_penalty(zero_qubo(4), ConstraintSpec(ConstraintKind.AT_MOST_ONE_SET, (0, 1, 2, 3)))
    for m in range(16):
        bits = tuple((m >> i) & 1 for i in range(4))
        k = sum(bits)
        # ordered-pair double sum: k chosen items cost k(k-1)
        assert evaluate_qubo(pen, bits) == float(k * (k - 1))


def test_exact_sum_penalty():
    pen = apply_penalty(zero_qubo(3), ConstraintSpec(ConstraintKind.EXACT_SUM, (0, 1, 2), bound=2))
    for m in range(8):
        bits = tuple((m >> i) & 1 for i in range(3))
        assert evaluate_qubo(pen, bits) == float((sum(bits) - 2) ** 2)


def test_slack_inequality_penalty():
    spec = ConstraintSpec(
        ConstraintKind.SLACK_INEQUALITY, (0, 1, 2), weights=(3.0, 1.0, 2.0), bound=4
    )
    pen = apply_penalty(zero_qubo(3), spec)
    assert pen.n == 3 + 3  # bit_length(4) slack bits, weights 1, 2, 4
    for m in range(8):
        bits = tuple((m >> i) & 1 for i in range(3))
        best = min(
            evaluate_qubo(pen, bits + tuple((s >> j) & 1 for j in range(3)))
            for s in range(8)
        )
        load = 3 * bits[0] + bits[1] + 2 * bits[2]
        if load <= 4:
            assert best == 0.0
        else:
            assert best > 0.0


def test_unbalanced_penalty_defaults_and_bias():
    spec = ConstraintSpec(ConstraintKind.UNBALANCED_INEQUALITY, (0,), weights=(1.0,), bound=1.0)
    pen = apply_penalty(zero_qubo(1), spec)
    # defaults p1=0.96, p2=0.0371; feasible x=0 is not mapped to zero
    got = evaluate_qubo(pen, (0,))
    assert abs(got - (0.96 * (-1.0) + 0.0371 * 1.0)) < 1e-12
    assert got != 0.0
    assert evaluate_qubo(pen, (1,)) == 0.0


def test_penalty_preserves_existing_cost():
    rng = np.random.default_rng(3)
    base = build_qubo(rng.normal(size=(3, 3)), rng.normal(size=3), offset=0.25)
    pen = apply_penalty(base, ConstraintSpec(ConstraintKind.EQUAL_PAIR, (0, 2), p1=2.0))
    for m in range(8):
        bits = tuple((m >> i) & 1 for i in range(3))
        extra = 2.0 * (bits[0] != bits[2])
        assert abs(evaluate_qubo(pen, bits) - evaluate_qubo(base, bits) - extra) < 1e-12


def test_apply_penalty_on_pubo():
    base = build_pubo(2, [((0, 1), 1.0)])
    pen = apply_penalty(base, ConstraintSpec(ConstraintKind.AT_LEAST_ONE_PAIR, (0, 1)))
    assert evaluate_pubo(pen, (0, 0)) == 1.0
    assert evaluate_pubo(pen, (1, 1)) == 1.0  # original cost, zero penalty
    assert evaluate_pubo(pen, (1, 0)) == 0.0


K = ConstraintKind


@pytest.mark.parametrize("spec, fragment", [
    (ConstraintSpec(K.AT_MOST_ONE_PAIR, (1, 1)), "distinct"),
    (ConstraintSpec(K.AT_MOST_ONE_PAIR, (0, 3)), "constraint index must be < 3"),
    (ConstraintSpec(K.EQUAL_PAIR, (0, 1), p1=0.0), "p1 must be a positive finite number"),
    (ConstraintSpec(K.AT_LEAST_ONE_PAIR, (0, 1, 2)), "exactly two indices"),
    (ConstraintSpec(K.AT_MOST_ONE_SET, (0,)), "at least two indices"),
    (ConstraintSpec(K.EXACT_SUM, (0, 1)), "exact_sum requires a bound"),
    (ConstraintSpec(K.EXACT_SUM, (0, 1), weights=(1.0, 2.0), bound=1), "exact_sum is unweighted"),
    (ConstraintSpec(K.SLACK_INEQUALITY, (0, 1), bound=2), "requires weights and a bound"),
    (ConstraintSpec(K.SLACK_INEQUALITY, (0, 1), weights=(1, 1), bound=1.5), "slack_inequality bound must be a whole number"),
    (ConstraintSpec(K.SLACK_INEQUALITY, (0, 1), weights=(1, 1), bound=-1), "must be >= 0"),
    (ConstraintSpec(K.SLACK_INEQUALITY, (0, 1), weights=(1,), bound=2), "weights must match indices"),
    (ConstraintSpec(K.SLACK_INEQUALITY, (0, 1), weights=(1, 0.5), bound=2), "slack_inequality weight must be a whole number"),
    (ConstraintSpec(K.SLACK_INEQUALITY, (0, 1), weights=(1, -1), bound=2), "must be >= 1"),
    (ConstraintSpec(K.UNBALANCED_INEQUALITY, (0, 1), weights=(1, 1)), "requires weights and a bound"),
    (ConstraintSpec(K.UNBALANCED_INEQUALITY, (0, 1), weights=(1, 1, 1), bound=1), "weights must match indices"),
    (ConstraintSpec(K.UNBALANCED_INEQUALITY, (0, 1), weights=(1, 1), bound=1, p2=0.0), "p2 must be a positive finite number"),
    (ConstraintSpec(K.UNBALANCED_INEQUALITY, (0, 1), weights=("1", True), bound="2"),
     "unbalanced_inequality weight must be finite and a number"),
])
def test_penalty_refusals(spec, fragment):
    with pytest.raises(ValueError, match=fragment):
        apply_penalty(zero_qubo(3), spec)


@pytest.mark.parametrize("kwargs, fragment", [
    (dict(values=(1, 2), weights=(1,), capacity=1), "equal-length"),
    (dict(values=[[1, 2]], weights=[[1, 2]], capacity=1), "equal-length"),
    (dict(values=(1, 0), weights=(1, 1), capacity=1), "positive"),
    (dict(values=(1, 1), weights=(1, -2), capacity=1), "positive"),
    (dict(values=(1, 1), weights=(1, 1), capacity=None), "explicit capacity"),
    (dict(values=(1, 1), weights=(1, 1), capacity=float("inf")), "capacity must be finite"),
    (dict(values=(1, 1), weights=(1, 1), capacity=1, p1=0.0), "p1 must be a positive finite number"),
    (dict(values=(1, 1), weights=(1, 1), capacity=1, p2=-1.0), "p2 must be a positive finite number"),
    (dict(values=["4", True], weights=["1", 2], capacity="3"), "knapsack value must be a positive finite number"),
])
def test_knapsack_refusals(kwargs, fragment):
    with pytest.raises(ValueError, match=fragment):
        build_knapsack(**kwargs)


@pytest.mark.parametrize("x, fragment", [
    ("01x", "only 0/1"),
    ("011", "has 3 bits, expected 2"),
    ((0, 2), "must be 0 or 1"),
    ((0.5, 1.7), "must be 0 or 1"),  # int() would read them as (0, 1)
    (("1", True), "must be 0 or 1"),
    ((np.True_, 0), "must be 0 or 1"),
    ((1, math.nan), "must be 0 or 1"),
])
def test_as_bits_refusals(x, fragment):
    with pytest.raises(ValueError, match=fragment):
        model.as_bits(x, 2)


def _penalized(spec):
    p = apply_penalty(zero_qubo(3), spec)
    return p.n, p.Q.tolist(), p.c.tolist(), p.offset


def _knapsack(**kwargs):
    p = build_knapsack(**dict(values=(3, 2), weights=(2, 1), capacity=2) | kwargs)
    return p.Q.tolist(), p.c.tolist(), p.offset


# each rule's message, and what it refuses beyond True, "1" and nan
RULES = {
    "whole": ("a whole number", (2.5,)),
    "positive": ("a positive finite number", (math.inf, 10 ** 400, 10 ** 5000)),
    "finite": ("finite and a number", (-math.inf, 10 ** 400, -10 ** 5000)),
    # an entry of an array argument, where an ndarray is read by its dtype
    "array": ("finite and a number", (-math.inf, 10 ** 400, -10 ** 5000, np.array(True), np.array("1"))),
}

H = SpinHamiltonian(2, {(0, 1): 1.0, (0,): 0.5})
SPEC = build_circuit(H)


@pytest.mark.parametrize("field, make, rule", [
    pytest.param("constraint index", lambda v: _penalized(ConstraintSpec(K.AT_MOST_ONE_PAIR, (0, v))), "whole",
                 id="index"),
    pytest.param("slack_inequality bound",
                 lambda v: _penalized(ConstraintSpec(K.SLACK_INEQUALITY, (0, 1), weights=(1, 1), bound=v)), "whole",
                 id="slack-bound"),
    pytest.param("slack_inequality weight",
                 lambda v: _penalized(ConstraintSpec(K.SLACK_INEQUALITY, (0, 1), weights=(2, v), bound=2)), "whole",
                 id="slack-weight"),
    pytest.param("exact_sum bound", lambda v: _penalized(ConstraintSpec(K.EXACT_SUM, (0, 1, 2), bound=v)), "whole",
                 id="exact-sum-bound"),
    pytest.param("p1", lambda v: _penalized(ConstraintSpec(K.EQUAL_PAIR, (0, 1), p1=v)), "positive", id="penalty-p1"),
    pytest.param("p2", lambda v: _penalized(ConstraintSpec(K.UNBALANCED_INEQUALITY, (0, 1), weights=(1, 2), bound=2,
                                                           p2=v)), "positive", id="penalty-p2"),
    pytest.param("unbalanced_inequality weight",
                 lambda v: _penalized(ConstraintSpec(K.UNBALANCED_INEQUALITY, (0, 1), weights=(2, v), bound=2)),
                 "finite", id="unbalanced-weight"),
    pytest.param("unbalanced_inequality bound",
                 lambda v: _penalized(ConstraintSpec(K.UNBALANCED_INEQUALITY, (0, 1), weights=(1, 2), bound=v)),
                 "finite", id="unbalanced-bound"),
    pytest.param("p1", lambda v: _knapsack(p1=v), "positive", id="knapsack-p1"),
    pytest.param("p2", lambda v: _knapsack(p2=v), "positive", id="knapsack-p2"),
    pytest.param("knapsack value", lambda v: _knapsack(values=(3, v)), "positive", id="knapsack-value"),
    pytest.param("knapsack weight", lambda v: _knapsack(weights=(v, 2)), "positive", id="knapsack-weight"),
    pytest.param("capacity", lambda v: _knapsack(capacity=v), "finite", id="knapsack-capacity"),
    pytest.param("a0", lambda v: OptimizerConfig(a0=v), "positive", id="a0"),
    pytest.param("Q", lambda v: build_qubo([[2, 0], [0, v]]).Q.tolist(), "array", id="build-qubo-Q"),
    pytest.param("c", lambda v: build_qubo([[2]], [v]).c.tolist(), "array", id="build-qubo-c"),
    pytest.param("offset", lambda v: build_qubo([[2]], offset=v).offset, "finite", id="build-qubo-offset"),
    pytest.param("Q", lambda v: QuboProblem(1, [[v]], [0.0]).Q.tolist(), "array", id="qubo-Q"),
    pytest.param("c", lambda v: QuboProblem(1, [[2.0]], [v]).c.tolist(), "array", id="qubo-c"),
    pytest.param("offset", lambda v: QuboProblem(1, [[2.0]], [0.0], offset=v).offset, "finite", id="qubo-offset"),
    pytest.param("term coef", lambda v: build_pubo(2, [((0,), v)]).terms, "finite", id="build-pubo-coef"),
    pytest.param("offset", lambda v: build_pubo(2, [], offset=v).offset, "finite", id="build-pubo-offset"),
    pytest.param("term coefficients", lambda v: PuboProblem(2, {(0,): v}).terms, "finite", id="pubo-coef"),
    pytest.param("offset", lambda v: PuboProblem(2, {}, offset=v).offset, "finite", id="pubo-offset"),
    pytest.param("term coefficients", lambda v: SpinHamiltonian(2, {(0,): v}).terms, "finite", id="spin-coef"),
    pytest.param("constant", lambda v: SpinHamiltonian(2, {}, constant=v).constant, "finite", id="spin-constant"),
    pytest.param("scale factor", lambda v: scale(H, v).terms, "positive", id="scale"),
    pytest.param("parameters", lambda v: qaoa.QaoaParams([v], [0.2]).as_vector().tolist(), "array", id="params-beta"),
    pytest.param("parameters", lambda v: qaoa.QaoaParams([0.1], [v]).as_vector().tolist(), "array", id="params-gamma"),
    pytest.param("parameters", lambda v: qaoa.QaoaParams.from_vector([0.1, v]).as_vector().tolist(), "array",
                 id="params-vector"),
    pytest.param("parameters", lambda v: qaoa.energies(SPEC, [[0.1, v]]).tolist(), "array", id="energies"),
    pytest.param("parameters", lambda v: qaoa.shot_energies(SPEC, [[0.1, v]], 10, [0]).tolist(), "array",
                 id="shot-energies"),
    pytest.param("parameters", lambda v: [a.tolist() for a in qaoa.energy_and_gradient(SPEC, [[0.1, v]])], "array",
                 id="energy-and-gradient"),
    pytest.param("beta_range", lambda v: landscape_scan(SPEC, 2, beta_range=(v, 2.0)).values.tolist(), "finite",
                 id="scan-beta-range"),
    pytest.param("gamma_range", lambda v: landscape_scan(SPEC, 2, gamma_range=(0.0, v)).values.tolist(), "finite",
                 id="scan-gamma-range"),
    pytest.param("raw vector", lambda v: squash_params([0.1, v], qaoa.restricted_domain(SPEC)).as_vector().tolist(),
                 "array", id="squash-params"),
    pytest.param("qubit count", lambda v: sim.init_plus(v).amp.tolist(), "whole", id="init-plus"),
    pytest.param("qubit count", lambda v: dense.mixer_matrix(v).tolist(), "whole", id="dense-size"),
    pytest.param("seed", lambda v: verify.run_suite("symmetry", seed=v), "whole", id="verify-seed"),
])
def test_value_rules(field, make, rule):
    # int() and float() would read True and "1" as 1, nan would slip past a bare comparison,
    # and float() overflows on an int past the float range without naming the field
    message, refused = RULES[rule]
    for bad in (True, "1", math.nan) + refused:
        with pytest.raises(ValueError, match=f"^{re.escape(field)} must be {message}, got "):
            make(bad)
    for good in (1.0, np.int64(1), np.float32(1.0)) + ((np.array(1), np.array(1.0)) if rule == "array" else ()):
        assert make(good) == make(1)


def test_refusals_print_huge_ints_by_size():
    # str() refuses an int over 4300 digits, so a refusal that printed it would fail
    # itself without naming the field; long reprs are cut to 80 characters
    with pytest.raises(ValueError, match=r"^p1 must be a positive finite number, got an int of 16610 bits$"):
        positive_number(10 ** 5000, "p1")
    with pytest.raises(ValueError, match=r"^edges endpoint must be < 3, got an int of 16610 bits$"):
        build_maxcut(3, [(0, 10 ** 5000)])
    with pytest.raises(ValueError, match=r"^term idx must be >= 0, got an int of 16610 bits$"):
        build_pubo(2, [((-10 ** 5000,), 1.0)])
    assert brief(2 ** 255) == repr(2 ** 255) and brief(-2 ** 256) == "an int of 257 bits"
    assert brief("x" * 80) == repr("x" * 80)[:77] + "..." and brief(2.5) == "2.5"


def test_build_maxcut_square():
    p = build_maxcut(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    # cost(x) == -cut(x) for every assignment
    for m in range(16):
        bits = tuple((m >> i) & 1 for i in range(4))
        cut = sum(bits[i] != bits[j] for i, j in [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert evaluate_qubo(p, bits) == float(-cut)


def test_brute_force_square_graph():
    p = build_maxcut(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    res = brute_force_solve(p)
    assert res.best_cost == -4.0
    assert res.optimum_set == ("1010", "0101")  # ascending packed index
    assert res.best_assignment == "1010"


def test_brute_force_full_table_matches_direct():
    rng = np.random.default_rng(7)
    p = build_pubo(6, [(tuple(sorted(rng.choice(6, size=3, replace=False))), float(rng.normal()))
                       for _ in range(8)], offset=1.5)
    table = brute_force_solve(p, full_table=True).table
    for m in range(64):
        bits = tuple((m >> i) & 1 for i in range(6))
        assert abs(table[m] - evaluate_pubo(p, bits)) < 1e-12


def test_brute_force_cap(monkeypatch):
    with pytest.raises(SizeCapError):
        brute_force_solve(zero_qubo(23))
    monkeypatch.setattr(model, "BRUTE_FORCE_CAP", 5)
    brute_force_solve(zero_qubo(5))
    with pytest.raises(SizeCapError):
        brute_force_solve(zero_qubo(6))


def test_brute_force_keeps_all_ties():
    res = brute_force_solve(zero_qubo(3))
    assert res.best_cost == 0.0
    assert len(res.optimum_set) == 8


def test_brute_force_two_chunks_match_spin_diagonal():
    # a 17-vertex ring enumerates in two chunks of 2^16; an odd ring cuts
    # 16 edges at best, with the one uncut edge anywhere and two colourings
    n = 17
    p = build_maxcut(n, [(i, (i + 1) % n) for i in range(n)])
    res = brute_force_solve(p)
    energies = diagonalize(to_spin(p))
    argmin = np.nonzero(energies == energies.min())[0]
    want = {"".join(map(str, assignment_of_basis_index(int(z), n))) for z in argmin}
    assert res.best_cost == -16.0
    assert len(res.optimum_set) == 2 * n
    assert set(res.optimum_set) == want
    assert {s[-1] for s in res.optimum_set} == {"0", "1"}  # optima in both chunks


def test_build_knapsack_frozen():
    p = build_knapsack((4, 4), (4, 3), 5, p1=1.0, p2=1.0)
    assert np.allclose(p.Q, [[16.0, 12.0], [12.0, 9.0]])
    assert np.allclose(p.c, [-40.0, -31.0])
    assert p.offset == 20.0
    # value = -sum(v x) + p1 (w.x - W) + p2 (w.x - W)^2
    assert evaluate_qubo(p, (0, 0)) == -5.0 + 25.0
    assert evaluate_qubo(p, (1, 1)) == -8.0 + 2.0 + 4.0


def test_problem_dict_round_trip():
    rng = np.random.default_rng(9)
    q = build_qubo(rng.normal(size=(3, 3)), rng.normal(size=3), offset=-0.5)
    q2 = problem_from_dict(q.to_dict())
    assert isinstance(q2, QuboProblem)
    assert np.allclose(q.Q, q2.Q) and np.allclose(q.c, q2.c) and q.offset == q2.offset

    p = build_pubo(4, [((0, 2, 3), 1.5), ((1,), -2.0)], offset=3.0)
    p2 = problem_from_dict(p.to_dict())
    assert isinstance(p2, PuboProblem)
    assert p2.terms == p.terms and p2.offset == p.offset


def test_load_problem_types(tmp_path):
    f = tmp_path / "k.json"
    f.write_text(json.dumps({
        "type": "knapsack", "values": [4, 4], "weights": [4, 3], "capacity": 5,
        "p1": 1.0, "p2": 1.0,
    }))
    p = load_problem(f)
    assert np.allclose(p.Q, [[16.0, 12.0], [12.0, 9.0]])

    m = load_problem({"type": "maxcut", "vertices": 3, "edges": [[0, 1]]})
    assert evaluate_qubo(m, (1, 0, 0)) == -1.0


def test_load_problem_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "qubo",\n  "Q": [[1, }')
    with pytest.raises(ProblemFormatError) as err:
        load_problem(bad)
    assert err.value.line == 2

    with pytest.raises(ProblemFormatError):
        load_problem({"type": "mystery"})
    with pytest.raises(ProblemFormatError):
        load_problem({"type": "knapsack", "values": [1], "weights": [1]})


@pytest.mark.parametrize("doc, field", [
    ({"type": "maxcut", "vertices": 3.7, "edges": [[0, 1]]}, "vertices"),
    ({"type": "maxcut", "vertices": 3, "edges": [[0.5, 1]]}, "edges"),
    ({"type": "maxcut", "vertices": 3, "edges": [["1", 2]]}, "edges"),
    ({"type": "maxcut", "vertices": True, "edges": []}, "vertices"),
    ({"type": "pubo", "n": 2.9, "terms": [{"idx": [0, 1], "coef": 1.0}]}, "n"),
    ({"type": "pubo", "n": 2, "terms": [{"idx": [0.9, 1], "coef": 1.0}]}, "idx"),
    ({"type": "pubo", "n": -1, "terms": []}, "n"),
])
def test_load_problem_refuses_fractional_or_negative_counts(doc, field):
    # int() would truncate 3.7 to 3 and 0.9 to 0, and turn "1" into 1
    with pytest.raises(ProblemFormatError, match=rf"\b{field}\b.* must be (a whole number|>= 0, got -1)"):
        load_problem(doc)


@pytest.mark.parametrize("doc, field", [
    ({"type": "maxcut", "vertices": 3, "edges": [[0, 1, 2]]}, "edges"),
    ({"type": "maxcut", "vertices": 3, "edges": [0]}, "edges"),
    ({"type": "maxcut", "vertices": 3, "edges": 5}, "edges"),
    ({"type": "pubo", "n": 2, "terms": 5}, "terms"),
    ({"type": "pubo", "n": 2, "terms": [{"idx": [0]}]}, "coef"),
    ({"type": "pubo", "n": 2, "terms": [{"coef": 1.0}]}, "idx"),
    ({"type": "pubo", "n": 2, "terms": [{"idx": 0, "coef": 1.0}]}, "idx"),
    ({"type": "pubo", "n": 2, "terms": [[0, 1]]}, "terms"),
])
def test_load_problem_names_the_malformed_field(doc, field):
    with pytest.raises(ProblemFormatError, match=rf"\b{field}\b"):
        load_problem(doc)


def _count_entry_points():
    """field -> (call with the count, read the count back) for every entry point taking a count."""
    h = SpinHamiltonian(2, {(0, 1): 1.0, (0,): 0.5})
    entries = {
        "layers": (lambda v: build_circuit(h, layers=v), lambda spec: spec.layers),
        "resolution": (lambda v: landscape_scan(build_circuit(h), v), lambda grid: grid.values.shape[0]),
        "n": (lambda v: build_pubo(v, []), lambda p: p.n),
        "vertices": (lambda v: build_maxcut(v, []), lambda m: m.n),
    }
    for field in ("max_iters", "restarts", "seed", "shots"):
        entries[field] = (lambda v, f=field: OptimizerConfig(**{f: v}), lambda c, f=field: getattr(c, f))
    return entries


COUNT_ENTRY_POINTS = _count_entry_points()


@pytest.mark.parametrize("field", sorted(COUNT_ENTRY_POINTS))
def test_every_count_follows_one_rule(field):
    # model.whole_number states the rule once; each entry point names its own field
    make, read = COUNT_ENTRY_POINTS[field]
    for bad in (2.5, True, "3", float("nan")):
        with pytest.raises(ValueError, match=f"^{field} must be a whole number, got "):
            make(bad)
    for whole in (3, 3.0, np.int64(3)):
        value = read(make(whole))
        assert value == 3 and type(value) is int


def test_whole_number_bounds():
    assert model.whole_number(2 ** 2000, "k", 0) == 2 ** 2000
    for bad, message in ((math.inf, "k must be a whole number, got inf"), (-1, "k must be >= 0, got -1"),
                         (4.0, "k must be < 4, got 4.0"), (np.bool_(True), "k must be a whole number")):
        with pytest.raises(ValueError, match=re.escape(message)):
            model.whole_number(bad, "k", 0, 4)


def test_whole_float_counts_still_load():
    m = load_problem({"type": "maxcut", "vertices": 3.0, "edges": [[0, 1.0]]})
    p = load_problem({"type": "pubo", "n": 2.0, "terms": [{"idx": [1.0], "coef": 2.0}]})
    assert (m.n, p.n, p.terms) == (3, 2, {(1,): 2.0})
    assert all(type(i) is int for idx in p.terms for i in idx)


SWEEP_DOCUMENTS = [
    {"type": "qubo", "Q": [[1, -2], [0, 3]], "c": [0.5, 0], "offset": 2 ** 70},
    {"type": "pubo", "n": 3, "terms": [{"idx": [0, 2], "coef": 1.5}], "offset": -1},
    {"type": "maxcut", "vertices": 3, "edges": [[0, 1], [1, 2]]},
    {"type": "knapsack", "values": [4, 2], "weights": [3, 1], "capacity": 3, "p1": 1, "p2": 0.5},
]


def field_paths(doc, path=()):
    """The path of every value in a JSON document, nested ones included: object keys and list indices."""
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield path + (key,)
        yield from field_paths(value, path + (key,))


def with_field(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


# fields that hold one number: a string, boolean, null, list or object there is refused by name
SCALAR_FIELDS = {"offset", "coef", "capacity", "p1", "p2"}


@pytest.mark.parametrize("value", ["1", True, None, [1], {"1": 1}], ids=["string", "boolean", "null", "list", "object"])
@pytest.mark.parametrize("doc", SWEEP_DOCUMENTS, ids=lambda doc: doc["type"])
def test_malformed_field_sweep(doc, value):
    # every field either loads or raises ProblemFormatError, and float() or
    # np.array must not read a string or a boolean as a number
    problem = load_problem(doc)
    for path in field_paths(doc):
        try:
            load_problem(with_field(doc, path, value))
        except ProblemFormatError as e:
            assert path[-1] not in SCALAR_FIELDS or path[-1] in str(e), (path, str(e))
            continue
        assert not isinstance(value, (str, bool)) and path[-1] not in SCALAR_FIELDS, path
    if doc["type"] == "qubo":
        # an integer past int64 loads as its float; an unknown key is ignored, whatever it holds
        assert problem.offset == float(2 ** 70)
        assert load_problem({**doc, "labels": value}).to_dict() == problem.to_dict()
