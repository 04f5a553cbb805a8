"""Spin Hamiltonians: products of sigma_z factors with real coefficients.

Binary problems convert through the change of variables s = 2x - 1, so
s = +1 corresponds to x = 1.  In the computational basis sigma_z has
eigenvalue +1 on |0> and -1 on |1>, which means basis state z encodes the
assignment x_i = 1 - bit_i(z).  assignment_of_basis_index at the bottom owns
that mapping; parity_sign is the one sigma_z sign kernel.  sign_view is
diagonalize's plan: on large registers the 2^n table gets one size-2 axis
per bit at or above LOW_BITS, and parity_sign of only the low and the
selected high bits broadcasts through it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import SizeCapError
from .model import PuboProblem, QuboProblem, _canon, _check_terms, _real, brief

# Largest n for a 2^n table: this diagonal and the statevector engine's
# amplitudes (simulator.STATEVECTOR_CAP is this value).
DIAGONAL_CAP = 24

# pubo_to_spin refuses a problem whose monomials would expand into more spin
# terms than this (~240 B each, so about 250 MiB).
SPIN_TERM_CAP = 1 << 20

# sign_view keeps the bits below this in one contiguous axis.
LOW_BITS = 8


@dataclass(frozen=True)
class SpinHamiltonian:
    """H(s) = sum over terms of coef * prod(s_i for i in idx), s_i in {-1,+1}.

    Term keys are strictly increasing index tuples of degree >= 1.  The
    constant records the assignment-independent shift discarded when a
    binary problem was converted; it is not part of H itself and stays in
    original problem units even after scaling.
    """

    n: int
    terms: dict[tuple[int, ...], float]
    constant: float = 0.0

    def __post_init__(self):
        _check_terms(self.n, self.terms, self.constant, "constant")

    def all_even_degrees(self) -> bool:
        return all(len(k) % 2 == 0 for k in self.terms)


def qubo_to_spin(problem: QuboProblem) -> SpinHamiltonian:
    """Convert x^T Q x + c^T x + offset to spin variables via s = 2x - 1.

    Pair couplings are Q_ij / 2 for i < j, fields are (c_i + sum_j Q_ij) / 2,
    and the diagonal of Q folds into the constant because s_i^2 = 1.  The
    constant is sum(Q)/4 + sum(c)/2 + trace(Q)/4 + offset, so evaluating the
    spin form and adding the constant reproduces the binary cost exactly.
    """
    n = problem.n
    Q, c = problem.Q, problem.c
    terms: dict[tuple[int, ...], float] = {}
    for i in range(n):
        b = (c[i] + Q[i, :].sum()) / 2.0
        if b != 0.0:
            terms[(i,)] = float(b)
    for i in range(n):
        for j in range(i + 1, n):
            a = Q[i, j] / 2.0
            if a != 0.0:
                terms[(i, j)] = float(a)
    constant = float(Q.sum() / 4.0 + c.sum() / 2.0 + np.trace(Q) / 4.0 + problem.offset)
    return SpinHamiltonian(n=n, terms=_canon(terms), constant=constant)


def pubo_to_spin(problem: PuboProblem) -> SpinHamiltonian:
    """Convert a multilinear binary polynomial to spin variables.

    Substitutes x_i = (s_i + 1) / 2 and expands every monomial over its
    index subsets.  verify.pubo_to_spin_closed_form is the independent
    closed-form route it is checked against.  A degree-k monomial yields up
    to 2^k - 1 spin terms; past SPIN_TERM_CAP in total this raises
    SizeCapError before expanding anything.
    """
    expanded = sum((1 << len(idx)) - 1 for idx in problem.terms)
    if expanded > SPIN_TERM_CAP:
        raise SizeCapError(f"PUBO expands into up to {expanded} spin terms, cap is {SPIN_TERM_CAP}")
    terms: dict[tuple[int, ...], float] = {}
    constant = problem.offset
    for idx, q in problem.terms.items():
        k = len(idx)
        w = q / float(1 << k)
        for r in range(k + 1):
            for sub in combinations(idx, r):
                if sub:
                    terms[sub] = terms.get(sub, 0.0) + w
                else:
                    constant += w
    return SpinHamiltonian(n=problem.n, terms=_canon(terms), constant=float(constant))


def to_spin(problem) -> SpinHamiltonian:
    """Convert either problem kind to its spin form."""
    if isinstance(problem, QuboProblem):
        return qubo_to_spin(problem)
    if isinstance(problem, PuboProblem):
        return pubo_to_spin(problem)
    raise TypeError(f"unsupported problem type: {type(problem).__name__}")


def scaling_factor(h: SpinHamiltonian) -> float:
    """Largest coefficient magnitude, the divisor that normalizes H."""
    if not h.terms:
        raise ValueError("cannot scale a Hamiltonian with no terms")
    return max(abs(v) for v in h.terms.values())


def scale(h: SpinHamiltonian, k: float | None = None) -> SpinHamiltonian:
    """Divide every term coefficient by k (default: the scaling factor).

    Minimizers are unchanged.  The constant is left in original units; an
    original-units energy is scaled_energy * k + constant.
    """
    if k is None:
        k = scaling_factor(h)
    if not (math.isfinite(k) and k > 0):
        raise ValueError(f"scale factor must be positive and finite, got {k}")
    return SpinHamiltonian(n=h.n, terms={key: v / k for key, v in h.terms.items()}, constant=h.constant)


def evaluate_spin(h: SpinHamiltonian, s) -> float:
    """H(s) for one spin vector with entries in {-1,+1}; constant excluded."""
    sv = tuple(s)
    if len(sv) != h.n:
        raise ValueError(f"spin vector has {len(sv)} entries, expected {h.n}")
    if not all(_real(v) and v in (-1, 1) for v in sv):
        raise ValueError(f"spin entries must be -1 or +1, got {sv!r}")
    sv = tuple(int(v) for v in sv)
    total = 0.0
    for idx, coef in h.terms.items():
        total += coef * math.prod(sv[i] for i in idx)
    return float(total)


def diagonalize(h: SpinHamiltonian) -> np.ndarray:
    """Eigenvalue of H on every computational basis state, as a 2^n vector.

    Terms are summed in order, each as coef * pattern added through the
    table's sign_view, so every entry gets the same sum of +/-coef as with
    a full parity_sign per term, bit for bit.  Constant excluded.
    """
    if h.n > DIAGONAL_CAP:
        raise SizeCapError(f"diagonal table needs n <= {DIAGONAL_CAP}, got n = {brief(h.n)}")
    vals = np.zeros(1 << h.n)
    for idx, coef in h.terms.items():
        shape, pattern = sign_view(h.n, idx)
        view = vals.reshape(shape)
        view += coef * pattern
    return vals


def parity_sign(n: int, idx) -> np.ndarray:
    """Eigenvalue of the sigma_z product on qubits idx, per basis state of n qubits.

    sigma_z is +1 where the basis bit is 0 and -1 where it is 1, so starting
    from all +1 each q in idx negates the half with bit q set.  The result
    is exactly +1.0 where an even number of the selected bits are set, else
    -1.0, so sums of coef * sign do not depend on how the sign was built.
    """
    sign = np.ones(1 << n)
    for q in idx:
        half = sign.reshape(-1, 2, 1 << q)[:, 1]
        np.negative(half, out=half)
    return sign


def sign_view(n: int, idx) -> tuple[tuple[int, ...], np.ndarray]:
    """(shape, pattern) with table.reshape(shape) * pattern == table * parity_sign(n, idx).

    For n <= LOW_BITS + 2 the plan is (2^n,) and the full parity_sign: a
    table of at most four low blocks is no larger than most patterns, and
    building one costs as much as the full sign.  Above that, shape gives
    every bit from n - 1 down to LOW_BITS a size-2 axis of its own, ahead
    of the 2^LOW_BITS low block.  pattern is parity_sign on the low bits
    and the selected high bits packed above them, with size 2 on the
    selected bits' axes and 1 elsewhere, so numpy's iterator merges the
    runs and gaps; it has 2^LOW_BITS * 2^(selected high bits) entries.
    """
    if n <= LOW_BITS + 2:
        return (1 << n,), parity_sign(n, idx)
    low = [q for q in idx if q < LOW_BITS]
    high = idx[len(low):]
    pattern_shape = [1] * (n - LOW_BITS) + [1 << LOW_BITS]
    for q in high:
        pattern_shape[n - 1 - q] = 2
    packed = low + list(range(LOW_BITS, LOW_BITS + len(high)))
    shape = (2,) * (n - LOW_BITS) + (1 << LOW_BITS,)
    return shape, parity_sign(LOW_BITS + len(high), packed).reshape(pattern_shape)


def assignment_of_basis_index(z: int, n: int) -> tuple[int, ...]:
    """Binary assignment encoded by basis state z (bitwise complement of z)."""
    return tuple(1 - ((z >> i) & 1) for i in range(n))
