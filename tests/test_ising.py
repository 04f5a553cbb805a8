import tracemalloc

import numpy as np
import pytest

from qaoaforge import ising
from qaoaforge.errors import SizeCapError
from qaoaforge.ising import (
    SpinHamiltonian,
    assignment_of_basis_index,
    diagonalize,
    evaluate_spin,
    parity_sign,
    pubo_to_spin,
    qubo_to_spin,
    scale,
    scaling_factor,
    sign_view,
    to_spin,
)
from qaoaforge.model import (
    build_knapsack,
    build_pubo,
    build_qubo,
    evaluate_pubo,
    evaluate_qubo,
)
from qaoaforge.verify import _roundtrip_worst, pubo_to_spin_closed_form


def test_spin_hamiltonian_validation():
    with pytest.raises(ValueError):
        SpinHamiltonian(2, {(1, 0): 1.0})  # keys must be strictly increasing
    with pytest.raises(ValueError):
        SpinHamiltonian(2, {(0, 0): 1.0})
    with pytest.raises(ValueError):
        SpinHamiltonian(2, {(): 1.0})
    with pytest.raises(ValueError, match="out of range for n=2"):
        SpinHamiltonian(2, {(0, 2): 1.0})
    with pytest.raises(ValueError, match="coefficients must be finite"):
        SpinHamiltonian(2, {(0,): np.inf})
    with pytest.raises(ValueError, match="constant must be finite"):
        SpinHamiltonian(2, {(0,): 1.0}, constant=np.nan)
    h = SpinHamiltonian(3, {(0,): 1.0, (1, 2): -2.0})
    assert not h.all_even_degrees()
    assert SpinHamiltonian(3, {(1, 2): -2.0}).all_even_degrees()


def test_qubo_to_spin_knapsack_frozen():
    h = qubo_to_spin(build_knapsack((4, 4), (4, 3), 5, p1=1.0, p2=1.0))
    assert h.terms == {(0,): -6.0, (1,): -5.0, (0, 1): 6.0}
    assert h.constant == 3.0
    assert scaling_factor(h) == 6.0


def test_qubo_round_trip_all_assignments():
    rng = np.random.default_rng(21)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        p = build_qubo(rng.normal(size=(n, n)), rng.normal(size=n), offset=float(rng.normal()))
        h = qubo_to_spin(p)
        for m in range(1 << n):
            bits = tuple((m >> i) & 1 for i in range(n))
            s = tuple(2 * b - 1 for b in bits)
            assert abs(evaluate_spin(h, s) + h.constant - evaluate_qubo(p, bits)) < 1e-10


def test_pubo_expand_single_cubic_term():
    # x0 x1 x2 = prod (1+s_i)/2: every subset picks up 8 / 2^3
    want = {(0,): 1.0, (1,): 1.0, (2,): 1.0, (0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0, (0, 1, 2): 1.0}
    for convert in (pubo_to_spin, pubo_to_spin_closed_form):
        h = convert(build_pubo(3, [((0, 1, 2), 8.0)]))
        assert h.terms == want
        assert h.constant == 1.0


def test_pubo_round_trip_both_methods():
    rng = np.random.default_rng(22)
    for convert in (pubo_to_spin, pubo_to_spin_closed_form):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            items = [
                (tuple(sorted(rng.choice(n, size=int(rng.integers(1, min(4, n) + 1)), replace=False))),
                 float(rng.normal()))
                for _ in range(6)
            ]
            p = build_pubo(n, items, offset=0.75)
            if not p.terms:
                continue
            h = convert(p)
            for m in range(1 << n):
                bits = tuple((m >> i) & 1 for i in range(n))
                s = tuple(2 * b - 1 for b in bits)
                assert abs(evaluate_spin(h, s) + h.constant - evaluate_pubo(p, bits)) < 1e-10


def test_pubo_methods_agree():
    rng = np.random.default_rng(23)
    for _ in range(15):
        n = int(rng.integers(2, 8))
        items = [
            (tuple(sorted(rng.choice(n, size=int(rng.integers(1, min(4, n) + 1)), replace=False))),
             float(rng.normal()))
            for _ in range(2 * n)
        ]
        p = build_pubo(n, items)
        ha = pubo_to_spin(p)
        hb = pubo_to_spin_closed_form(p)
        assert abs(ha.constant - hb.constant) < 1e-12
        for key in set(ha.terms) | set(hb.terms):
            assert abs(ha.terms.get(key, 0.0) - hb.terms.get(key, 0.0)) < 1e-12


def test_to_spin_dispatch():
    q = build_qubo(np.eye(2), np.zeros(2))
    p = build_pubo(2, [((0, 1), 1.0)])
    assert to_spin(q).n == 2
    hp = to_spin(p)
    assert hp.terms == {(0,): 0.25, (1,): 0.25, (0, 1): 0.25}
    assert hp.constant == 0.25


def test_scaling():
    h = SpinHamiltonian(2, {(0,): -3.0, (0, 1): 1.5}, constant=7.0)
    assert scaling_factor(h) == 3.0
    hs = scale(h)
    assert hs.terms == {(0,): -1.0, (0, 1): 0.5}
    assert hs.constant == 7.0  # constant stays in original units
    with pytest.raises(ValueError):
        scaling_factor(SpinHamiltonian(2, {}))
    for k in (0.0, -2.0):
        with pytest.raises(ValueError, match="positive and finite"):
            scale(h, k)


def test_evaluate_spin_validates_entries():
    h = SpinHamiltonian(2, {(0, 1): 1.0})
    assert evaluate_spin(h, (1, -1)) == -1.0
    with pytest.raises(ValueError):
        evaluate_spin(h, (1, 0))
    with pytest.raises(ValueError, match="3 entries, expected 2"):
        evaluate_spin(h, (1, -1, 1))


def test_diagonalize_frozen():
    assert diagonalize(SpinHamiltonian(2, {(0,): 1.0})).tolist() == [1.0, -1.0, 1.0, -1.0]
    assert diagonalize(SpinHamiltonian(2, {(0, 1): 1.0})).tolist() == [1.0, -1.0, -1.0, 1.0]
    d = diagonalize(SpinHamiltonian(3, {(0, 2): 2.0, (1,): -1.0}))
    for z in range(8):
        s = [1 - 2 * ((z >> i) & 1) for i in range(3)]
        assert d[z] == 2.0 * s[0] * s[2] - 1.0 * s[1]


def test_diagonalize_cap():
    with pytest.raises(SizeCapError):
        diagonalize(SpinHamiltonian(25, {(0,): 1.0}))


def test_basis_index_conventions():
    # spin +1 is bit 0, so assignment bits are complemented
    assert tuple(1 - 2 * ((0 >> i) & 1) for i in range(2)) == (1, 1)
    assert tuple(1 - 2 * ((1 >> i) & 1) for i in range(2)) == (-1, 1)
    assert assignment_of_basis_index(0, 2) == (1, 1)
    assert assignment_of_basis_index(1, 2) == (0, 1)
    # and back: the basis state of assignment x has bit i = 1 - x_i
    assert sum((1 - b) << i for i, b in enumerate((0, 1, 0, 1))) == 5
    for z in range(16):
        assert sum((1 - b) << i for i, b in enumerate(assignment_of_basis_index(z, 4))) == z


def test_diagonal_matches_spin_convention():
    rng = np.random.default_rng(24)
    p = build_qubo(rng.normal(size=(4, 4)), rng.normal(size=4))
    h = qubo_to_spin(p)
    d = diagonalize(h)
    for z in range(16):
        bits = assignment_of_basis_index(z, 4)
        assert abs(d[z] + h.constant - evaluate_qubo(p, bits)) < 1e-10


def popcount_sign(n, idx):
    """(-1)^popcount(z & mask) over every basis index z, the kernel's reference."""
    z = np.arange(1 << n, dtype=np.uint64)
    mask = np.uint64(sum(1 << i for i in idx))
    return 1.0 - 2.0 * (np.bitwise_count(z & mask) & np.uint64(1)).astype(np.float64)


def popcount_table(h):
    """The term-by-term sum of coef * popcount_sign, diagonalize's reference."""
    want = np.zeros(1 << h.n)
    for idx, coef in h.terms.items():
        want += coef * popcount_sign(h.n, idx)
    return want


def random_terms(rng, n, degree):
    return [
        (tuple(sorted(rng.choice(n, size=int(rng.integers(1, min(degree, n) + 1)), replace=False))),
         float(rng.normal()))
        for _ in range(2 * n)
    ]


def test_parity_sign_matches_popcount():
    rng = np.random.default_rng(25)
    for n in range(1, 11):
        for _ in range(5):
            k = int(rng.integers(1, n + 1))
            idx = tuple(int(q) for q in sorted(rng.choice(n, size=k, replace=False)))
            sign = parity_sign(n, idx)
            assert sign.dtype == np.float64 and sign.shape == (1 << n,)
            assert np.array_equal(sign, popcount_sign(n, idx))


def test_sign_view_broadcasts_to_parity_sign():
    rng = np.random.default_rng(29)
    low = ising.LOW_BITS
    for n in range(1, 21):
        for _ in range(20):
            k = int(rng.integers(1, min(n, 8) + 1))
            idx = tuple(int(q) for q in sorted(rng.choice(n, size=k, replace=False)))
            shape, pattern = sign_view(n, idx)
            assert np.array_equal(np.broadcast_to(pattern, shape).reshape(-1), parity_sign(n, idx))
            high = sum(q >= low for q in idx)
            assert pattern.size == (1 << n if n <= low + 2 else 1 << (low + high))
            # one size-2 axis per bit from n - 1 down to LOW_BITS, then the low block
            assert shape == ((1 << n,) if n <= low + 2 else (2,) * (n - low) + (1 << low,))


def test_diagonalize_matches_popcount_loop():
    rng = np.random.default_rng(26)
    for trial in range(30):
        n = int(rng.integers(1, 13))
        if trial % 2:
            h = qubo_to_spin(build_qubo(rng.normal(size=(n, n)), rng.normal(size=n)))
        else:
            h = pubo_to_spin(build_pubo(n, random_terms(rng, n, 4)))
        assert np.array_equal(diagonalize(h), popcount_table(h))
    # n = 9 to 16 cross from sign_view's plain vector to its view: runs of
    # adjacent bits, terms across bit LOW_BITS, terms on qubit n - 1, degree <= 8
    low = ising.LOW_BITS
    for n in range(low + 1, low + 9):
        fixed = [
            (0,), (low - 1, low), (low,), (n - 1,), (0, n - 1), (low, low + 1, n - 1),
            tuple(range(n - 4, n)), (1, 3, low, n - 2), tuple(range(low - 4, low + 4)),
            tuple(sorted(rng.choice(n, size=8, replace=False))),
        ]
        terms = {tuple(sorted({int(q) for q in idx if q < n})): float(rng.normal()) for idx in fixed}
        for idx, coef in random_terms(rng, n, 8):
            terms[tuple(int(q) for q in idx)] = coef
        h = SpinHamiltonian(n, terms)
        assert np.array_equal(diagonalize(h), popcount_table(h)), n


def test_diagonalize_matches_brute_force_table():
    rng = np.random.default_rng(28)
    n = 14
    for p in (
        build_qubo(rng.normal(size=(n, n)), rng.normal(size=n), offset=0.5),
        build_pubo(n, random_terms(rng, n, 5), offset=-1.25),
    ):
        # every assignment's cost against the diagonal, through the complement mapping
        assert _roundtrip_worst(p, to_spin(p)) < 1e-9


def test_diagonalize_memory_is_a_few_vectors():
    rng = np.random.default_rng(27)
    n = 16
    h = qubo_to_spin(build_qubo(rng.normal(size=(n, n)), rng.normal(size=n)))
    vector_bytes = 8 << n
    tracemalloc.start()
    try:
        diagonalize(h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the table and one small sign pattern per term
    assert peak <= 1.5 * vector_bytes, peak / vector_bytes


def test_pubo_spin_term_cap(monkeypatch):
    monkeypatch.setattr(ising, "SPIN_TERM_CAP", 15)
    # a degree-k monomial expands into up to 2^k - 1 spin terms
    assert len(pubo_to_spin(build_pubo(5, [((0, 1, 2, 3), 1.0)])).terms) == 15
    with pytest.raises(SizeCapError):
        pubo_to_spin(build_pubo(5, [((0, 1, 2, 3, 4), 1.0)]))
    # the bound adds up over monomials, before any overlap merges
    with pytest.raises(SizeCapError):
        pubo_to_spin(build_pubo(5, [((0, 1, 2, 3), 1.0), ((0,), 1.0)]))
