"""Binary optimization models.

QUBO problems minimize x^T Q x + c^T x + offset over x in {0,1}^n with Q
symmetric.  PUBO problems generalize to higher-degree multilinear monomials.
Constraints are folded into the objective through penalty terms, and small
instances can be solved exactly by enumeration.

Conventions: assignments are ordered by variable index, variable 0 is the
least-significant bit when an assignment is packed into an integer, and
display strings put variable 0 leftmost.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import ProblemFormatError, SizeCapError

# Enumeration cap for brute force (2^22 assignments).
BRUTE_FORCE_CAP = 22

# Default weights for the unbalanced inequality penalty.  These are
# convenience values only; they trade constraint enforcement against
# objective distortion and should be tuned per problem.
DEFAULT_UNBALANCED_P1 = 0.96
DEFAULT_UNBALANCED_P2 = 0.0371

# What _real accepts, bool aside; built once, since every number rule reads it per value.
_REAL_TYPES = (int, float, np.integer, np.floating)


def as_bits(x, n: int) -> tuple[int, ...]:
    """Normalize an assignment to a tuple of n values in {0,1}.

    Accepts a string like "0110" (variable 0 leftmost) or a sequence of
    0/1 values ordered by variable index.
    """
    if isinstance(x, str):
        if not set(x) <= {"0", "1"}:
            raise ValueError(f"assignment string must contain only 0/1: {x!r}")
        x = map(int, x)
    bits = tuple(x)
    if len(bits) != n:
        raise ValueError(f"assignment has {len(bits)} bits, expected {n}")
    if not all(_real(b) and b in (0, 1) for b in bits):
        raise ValueError(f"assignment entries must be 0 or 1, got {bits!r}")
    return tuple(int(b) for b in bits)


def bits_to_string(bits) -> str:
    """Render an assignment with variable 0 leftmost."""
    return "".join(str(int(b)) for b in bits)


def index_assignment(m: int, n: int) -> tuple[int, ...]:
    """Unpack an integer into an assignment (variable 0 = least-significant bit)."""
    return tuple((m >> i) & 1 for i in range(n))


@dataclass(frozen=True)
class QuboProblem:
    """Quadratic binary minimization: x^T Q x + c^T x + offset, Q symmetric."""

    n: int
    Q: np.ndarray
    c: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        Q, c = finite_array(self.Q, "Q").copy(), finite_array(self.c, "c").copy()
        if Q.shape != (self.n, self.n):
            raise ValueError(f"Q must be {self.n}x{self.n}, got {Q.shape}")
        if c.shape != (self.n,):
            raise ValueError(f"c must have length {self.n}, got {c.shape}")
        if not np.array_equal(Q, Q.T):
            raise ValueError("Q must be symmetric; use build_qubo to symmetrize")
        Q.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "offset", finite_number(self.offset, "offset"))

    def to_dict(self) -> dict:
        return {"type": "qubo", "Q": self.Q.tolist(), "c": self.c.tolist(), "offset": self.offset}


@dataclass(frozen=True)
class PuboProblem:
    """Multilinear binary minimization: sum of coef * prod(x_i for i in idx) + offset.

    Construction checks the term table (_check_terms, as SpinHamiltonian);
    build_pubo merges permuted or repeated indices (x_i^2 = x_i).
    """

    n: int
    terms: dict[tuple[int, ...], float]
    offset: float = 0.0

    def __post_init__(self):
        _check_terms(self.n, self.terms, self.offset, "offset")

    @property
    def degree(self) -> int:
        return max((len(k) for k in self.terms), default=0)

    def to_dict(self) -> dict:
        return {
            "type": "pubo",
            "n": self.n,
            "terms": [{"idx": list(k), "coef": v} for k, v in self.terms.items()],
            "offset": self.offset,
        }


def build_qubo(Q, c=None, offset: float = 0.0) -> QuboProblem:
    """Construct a QUBO, symmetrizing Q as (Q + Q^T) / 2.

    Symmetrization never changes the cost of any assignment because
    x_i x_j = x_j x_i.
    """
    Q = finite_array(Q, "Q")
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError(f"Q must be a square matrix, got shape {Q.shape}")
    n = Q.shape[0]
    Qs = (Q + Q.T) / 2.0
    return QuboProblem(n=n, Q=Qs, c=np.zeros(n) if c is None else c, offset=offset)


def _real(v) -> bool:
    """Whether v is a real number that is not a bool (int() and float() also read "1" and true)."""
    return type(v) is not bool and isinstance(v, _REAL_TYPES)


def brief(v) -> str:
    """repr(v) for a refusal, at most 80 characters; an int past 256 bits, which str()
    may refuse to print (over 4300 digits), reads as its bit length."""
    if isinstance(v, int) and abs(v).bit_length() > 256:
        return f"an int of {abs(v).bit_length()} bits"
    text = repr(v)
    return text if len(text) <= 80 else text[:77] + "..."


def whole_number(v, field: str, lo: int, hi=math.inf) -> int:
    """v as an int in [lo, hi), refusing what int() would truncate or convert (3.7, "1", true, nan)."""
    if not (_real(v) and -math.inf < v < math.inf and int(v) == v):
        raise ValueError(f"{field} must be a whole number, got {brief(v)}")
    if not lo <= v < hi:
        raise ValueError(f"{field} must be >= {lo}, got {brief(v)}" if v < lo else f"{field} must be < {hi}, got {brief(v)}")
    return int(v)


def _float(v) -> float:
    """float(v) for a real number that is not a bool, else nan; an int past the float range is inf."""
    try:
        return float(v) if _real(v) else math.nan
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def positive_number(v, field: str) -> float:
    """v as a float in (0, inf), refusing what float() would convert (true, "1"), 0, nan, inf and 10**400."""
    x = _float(v)
    if not 0 < x < math.inf:
        raise ValueError(f"{field} must be a positive finite number, got {brief(v)}")
    return x


def finite_number(v, field: str) -> float:
    """v as a finite float, refusing what float() would convert (true, "1"), nan, inf and 10**400."""
    x = _float(v)
    if not math.isfinite(x):
        raise ValueError(f"{field} must be finite and a number, got {brief(v)}")
    return x


def finite_array(v, field: str) -> np.ndarray:
    """v as a float ndarray, finite_number's rule on every leaf of its nested lists; an ndarray leaf passes
    by its dtype (int or float, not bool or str), and a float64 ndarray v is returned without a copy."""
    leaves = [v]
    for x in leaves:  # grows as it goes, so nested lists are walked without recursion
        if isinstance(x, (list, tuple)):
            leaves.extend(x)
        elif not isinstance(x, np.ndarray):
            finite_number(x, field)
        elif x.dtype.kind not in "iuf":
            raise ValueError(f"{field} must be finite and a number, got an array of {x.dtype}")
    a = np.asarray(v, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(f"{field} must be finite and a number, got {a[~np.isfinite(a)][0]}")
    return a


def _check_terms(n: int, terms: dict, constant: float, name: str) -> None:
    """The term-table rule: keys non-empty, strictly increasing and inside [0, n); coefficients and constant finite."""
    for idx, coef in terms.items():
        if not (idx and 0 <= idx[0] and idx[-1] < n and list(idx) == sorted(set(idx))):
            raise ValueError(f"term key must be non-empty, strictly increasing and inside [0, {n}): {idx}")
        finite_number(coef, "term coefficients")
    finite_number(constant, name)


def _canon(terms: dict) -> dict:
    """Deterministic term order (by degree, then indices), exact zeros dropped."""
    return {k: terms[k] for k in sorted(terms, key=lambda k: (len(k), k)) if terms[k] != 0.0}


def build_pubo(n: int, terms, offset: float = 0.0) -> PuboProblem:
    """Construct a PUBO from (index_tuple, coef) pairs or a mapping.

    Indices inside a monomial are sorted and deduplicated (binary
    idempotence), permuted duplicates are merged by exact summation in
    input order, and exact-zero merged coefficients are dropped.  An empty
    index tuple folds into the offset.
    """
    n = whole_number(n, "n", 0)
    items = terms.items() if isinstance(terms, Mapping) else terms
    merged: dict[tuple[int, ...], float] = {}
    offset = finite_number(offset, "offset")
    for idx, coef in items:
        key = tuple(sorted(set(whole_number(i, "term idx", 0, n) for i in idx)))
        coef = finite_number(coef, "term coef")
        if not key:
            offset += coef
            continue
        merged[key] = merged.get(key, 0.0) + coef
    return PuboProblem(n=n, terms=_canon(merged), offset=offset)


def evaluate_qubo(problem: QuboProblem, x) -> float:
    """Exact cost of one assignment."""
    bits = as_bits(x, problem.n)
    v = np.array(bits, dtype=float)
    return float(v @ problem.Q @ v + problem.c @ v + problem.offset)


def evaluate_pubo(problem: PuboProblem, x) -> float:
    """Exact cost of one assignment."""
    bits = as_bits(x, problem.n)
    total = problem.offset
    for idx, coef in problem.terms.items():
        total += coef * math.prod(bits[i] for i in idx)
    return float(total)


class ConstraintKind(Enum):
    """Constraint families with exact or approximate penalty encodings."""

    AT_MOST_ONE_PAIR = "at_most_one_pair"          # x_i + x_j <= 1
    AT_LEAST_ONE_PAIR = "at_least_one_pair"        # x_i + x_j >= 1
    EQUAL_PAIR = "equal_pair"                      # x_i == x_j
    AT_MOST_ONE_SET = "at_most_one_set"            # sum_{i in I} x_i <= 1
    EXACT_SUM = "exact_sum"                        # sum_{i in I} x_i == W
    SLACK_INEQUALITY = "slack_inequality"          # sum w_i x_i <= W, exact via slack bits
    UNBALANCED_INEQUALITY = "unbalanced_inequality"  # sum w_i x_i <= W, approximate, no slacks


@dataclass(frozen=True)
class ConstraintSpec:
    """One constraint to be folded into the objective as a penalty.

    weights and bound apply only to the weighted kinds; p1 is the penalty
    weight (all kinds; default 1, or 0.96 for the unbalanced kind), p2 the
    quadratic weight of the unbalanced kind.  Fields are checked when the
    penalty is applied (whole_number, positive_number), not here.
    """

    kind: ConstraintKind
    indices: tuple[int, ...]
    weights: tuple[float, ...] | None = None
    bound: float | None = None
    p1: float | None = None
    p2: float | None = None


def _square_expansion(indices, weights, bound, rho, qadd, ladd):
    """Accumulate rho * (sum_i w_i x_i - W)^2 into quadratic/linear/constant parts.

    The squared sum places w_i w_j on every ordered index pair, so the
    diagonal w_i^2 lands in the quadratic part while the -2W cross terms
    stay linear.  Returns the constant rho * W^2.
    """
    for a, wa in zip(indices, weights):
        for b, wb in zip(indices, weights):
            key = (a, b) if a <= b else (b, a)
            qadd[key] = qadd.get(key, 0.0) + rho * wa * wb
        ladd[a] = ladd.get(a, 0.0) - 2.0 * rho * bound * wa
    return rho * bound * bound


def _penalty_parts(spec: ConstraintSpec, n: int):
    """Expand one constraint into (qadd, ladd, const, slack_weights).

    qadd maps (i, j) with i <= j to a coefficient on x_i x_j; ladd maps i
    to a coefficient on x_i; const is added to the offset.  slack_weights
    lists the binary expansion weights of any appended slack variables.
    """
    kind = spec.kind
    idx = tuple(whole_number(i, "constraint index", 0, n) for i in spec.indices)
    if len(set(idx)) != len(idx):
        raise ValueError("constraint indices must be distinct")
    weighted = kind in (ConstraintKind.SLACK_INEQUALITY, ConstraintKind.UNBALANCED_INEQUALITY)
    if weighted and (spec.bound is None or spec.weights is None):
        raise ValueError(f"{kind.value} requires weights and a bound")
    if weighted and len(spec.weights) != len(idx):
        raise ValueError("weights must match indices")
    default_p1 = DEFAULT_UNBALANCED_P1 if kind is ConstraintKind.UNBALANCED_INEQUALITY else 1.0
    p1 = default_p1 if spec.p1 is None else positive_number(spec.p1, "p1")

    qadd: dict[tuple[int, int], float] = {}
    ladd: dict[int, float] = {}
    const = 0.0
    slack_weights: list[float] = []

    if kind in (ConstraintKind.AT_MOST_ONE_PAIR, ConstraintKind.AT_LEAST_ONE_PAIR,
                ConstraintKind.EQUAL_PAIR):
        if len(idx) != 2:
            raise ValueError(f"{kind.value} takes exactly two indices")
        i, j = sorted(idx)
        if kind is ConstraintKind.AT_MOST_ONE_PAIR:
            # x_i x_j: zero unless both are set
            qadd[(i, j)] = p1
        elif kind is ConstraintKind.AT_LEAST_ONE_PAIR:
            # (1 - x_i)(1 - x_j): zero unless both are clear
            const += p1
            ladd[i] = -p1
            ladd[j] = -p1
            qadd[(i, j)] = p1
        else:
            # x_i (1 - x_j) + (1 - x_i) x_j: zero iff the bits agree
            ladd[i] = p1
            ladd[j] = p1
            qadd[(i, j)] = -2.0 * p1
    elif kind is ConstraintKind.AT_MOST_ONE_SET:
        if len(idx) < 2:
            raise ValueError("at_most_one_set needs at least two indices")
        # sum over ordered pairs i != j, so each unordered pair counts twice
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                i, j = sorted((idx[a], idx[b]))
                qadd[(i, j)] = qadd.get((i, j), 0.0) + 2.0 * p1
    elif kind is ConstraintKind.EXACT_SUM:
        if spec.bound is None:
            raise ValueError("exact_sum requires a bound")
        if spec.weights is not None:
            raise ValueError("exact_sum is unweighted; use slack_inequality for weights")
        W = whole_number(spec.bound, "exact_sum bound", 0)
        const += _square_expansion(idx, [1.0] * len(idx), W, p1, qadd, ladd)
    elif kind is ConstraintKind.SLACK_INEQUALITY:
        W = whole_number(spec.bound, "slack_inequality bound", 0)
        weights = [whole_number(w, "slack_inequality weight", 1) for w in spec.weights]
        # m = ceil(log2(W + 1)) slack bits represent any value in [0, W]
        m = W.bit_length()
        slack_weights = [float(1 << j) for j in range(m)]
        all_idx = idx + tuple(range(n, n + m))
        const += _square_expansion(all_idx, weights + slack_weights, W, p1, qadd, ladd)
    elif kind is ConstraintKind.UNBALANCED_INEQUALITY:
        weights = [finite_number(w, "unbalanced_inequality weight") for w in spec.weights]
        W = finite_number(spec.bound, "unbalanced_inequality bound")
        p2 = DEFAULT_UNBALANCED_P2 if spec.p2 is None else positive_number(spec.p2, "p2")
        # linear slope rewards slack below the bound, quadratic punishes distance
        for i, w in zip(idx, weights):
            ladd[i] = ladd.get(i, 0.0) + p1 * w
        const += -p1 * W
        const += _square_expansion(idx, weights, W, p2, qadd, ladd)
    else:  # pragma: no cover
        raise ValueError(f"unknown constraint kind: {kind}")
    return qadd, ladd, const, slack_weights


def apply_penalty(problem, spec: ConstraintSpec):
    """Return a new problem whose cost is the original plus the penalty.

    The penalty value is added exactly, constant included, so the returned
    cost at every assignment equals original cost + penalty.  Slack
    variables appended by slack_inequality enlarge n.
    """
    qadd, ladd, const, slack_weights = _penalty_parts(spec, problem.n)
    n2 = problem.n + len(slack_weights)
    if isinstance(problem, QuboProblem):
        Q = np.zeros((n2, n2))
        Q[: problem.n, : problem.n] = problem.Q
        c = np.zeros(n2)
        c[: problem.n] = problem.c
        for (i, j), a in qadd.items():
            if i == j:
                Q[i, i] += a
            else:
                Q[i, j] += a / 2.0
                Q[j, i] += a / 2.0
        for i, a in ladd.items():
            c[i] += a
        return QuboProblem(n=n2, Q=Q, c=c, offset=problem.offset + const)
    if isinstance(problem, PuboProblem):
        items = list(problem.terms.items())
        for (i, j), a in sorted(qadd.items()):
            items.append(((i,) if i == j else (i, j), a))
        for i, a in sorted(ladd.items()):
            items.append(((i,), a))
        return build_pubo(n2, items, offset=problem.offset + const)
    raise TypeError(f"unsupported problem type: {type(problem).__name__}")


@dataclass(frozen=True)
class BruteForceResult:
    """Exact enumeration result.

    best_assignment is the optimum with the smallest packed index;
    optimum_set lists every optimal assignment in ascending packed-index
    order.  table, when requested, holds the cost of assignment m at
    position m.
    """

    best_assignment: str
    best_cost: float
    optimum_set: tuple[str, ...]
    table: np.ndarray | None = None


def _chunk_costs(problem, lo: int, hi: int) -> np.ndarray:
    """Costs of assignments lo..hi-1 (packed index order).

    Accumulates monomial by monomial in a fixed order so results do not
    depend on how the enumeration is chunked.  A QUBO enters as its nonzero
    linear terms, then its upper-triangle pairs (i <= j, off-diagonal
    doubled); bits are 0/1, so every product is exact.
    """
    m = np.arange(lo, hi, dtype=np.int64)
    n = problem.n
    bits = ((m[:, None] >> np.arange(n)) & 1).astype(float)
    costs = np.full(hi - lo, problem.offset)
    if isinstance(problem, QuboProblem):
        Q, c = problem.Q, problem.c
        terms = [((i,), c[i]) for i in range(n) if c[i] != 0.0] + [
            ((i, j), Q[i, i] if i == j else 2.0 * Q[i, j]) for i in range(n) for j in range(i, n) if Q[i, j] != 0.0]
    else:
        terms = problem.terms.items()
    for idx, coef in terms:
        prod = bits[:, idx[0]].copy()
        for i in idx[1:]:
            prod *= bits[:, i]
        costs += coef * prod
    return costs


def brute_force_solve(problem, full_table: bool = False) -> BruteForceResult:
    """Enumerate all 2^n assignments exactly.

    Raises SizeCapError above BRUTE_FORCE_CAP.  Ties are kept: every assignment
    whose cost equals the minimum exactly (same floating-point value) is in
    optimum_set.
    """
    n = problem.n
    if n > BRUTE_FORCE_CAP:
        raise SizeCapError(f"brute force needs n <= {BRUTE_FORCE_CAP}, problem has n = {n}")
    total = 1 << n
    chunk = min(total, 1 << 16)
    best = math.inf
    optima: list[int] = []
    parts: list[np.ndarray] = []
    for lo in range(0, total, chunk):
        c = _chunk_costs(problem, lo, min(lo + chunk, total))
        m = float(c.min())
        if m < best:
            best, optima = m, []
        if m == best:
            optima.extend(int(z) for z in np.nonzero(c == best)[0] + lo)
        if full_table:
            parts.append(c)
    strings = tuple(bits_to_string(index_assignment(m, n)) for m in optima)
    return BruteForceResult(
        best_assignment=strings[0],
        best_cost=best,
        optimum_set=strings,
        table=np.concatenate(parts) if full_table else None,
    )


def build_maxcut(vertices: int, edges) -> QuboProblem:
    """Max Cut as minimization: each edge (i, j) contributes -(x_i + x_j - 2 x_i x_j).

    The cost of an assignment is minus its cut size.
    """
    vertices = whole_number(vertices, "vertices", 1)
    try:
        pairs = [(i, j) for i, j in edges]
    except (TypeError, ValueError) as e:
        raise ValueError(f"edges must be a list of [i, j] pairs: {e}") from None
    Q = np.zeros((vertices, vertices))
    c = np.zeros(vertices)
    for pair in pairs:
        i, j = (whole_number(v, "edges endpoint", 0, vertices) for v in pair)
        if i == j:
            raise ValueError(f"self-loop ({i},{j}) not allowed")
        Q[i, j] += 1.0
        Q[j, i] += 1.0
        c[i] -= 1.0
        c[j] -= 1.0
    return QuboProblem(n=vertices, Q=Q, c=c)


def build_knapsack(values, weights, capacity, p1: float | None = None, p2: float | None = None) -> QuboProblem:
    """Knapsack with the unbalanced inequality penalty folded in.

    Cost is -sum(v_i x_i) + p1 (sum(w_i x_i) - W) + p2 (sum(w_i x_i) - W)^2;
    the assignment-independent part -p1 W + p2 W^2 is kept in offset so the
    cost of a feasible tight assignment reports the plain negated value.
    """
    if np.ndim(values) != 1 or np.shape(values) != np.shape(weights):
        raise ValueError("values and weights must be equal-length vectors")
    v = np.array([positive_number(x, "knapsack value") for x in values])
    w = np.array([positive_number(x, "knapsack weight") for x in weights])
    if capacity is None:
        raise ValueError("knapsack requires an explicit capacity")
    W = finite_number(capacity, "capacity")
    p1 = DEFAULT_UNBALANCED_P1 if p1 is None else positive_number(p1, "p1")
    p2 = DEFAULT_UNBALANCED_P2 if p2 is None else positive_number(p2, "p2")
    Q = p2 * np.outer(w, w)
    c = -v + p1 * w - 2.0 * p2 * W * w
    return build_qubo(Q, c, offset=-p1 * W + p2 * W * W)


def _require(d: Mapping, key: str, kind: str, listed: bool = False):
    if key not in d:
        raise ProblemFormatError(f"{kind} problem requires '{key}'")
    if listed and not isinstance(d[key], (list, tuple)):
        raise ProblemFormatError(f"{kind} {key} must be a list, got {d[key]!r}")
    return d[key]


def problem_from_dict(d: Mapping):
    """Build a problem from its dict form (see load_problem)."""
    if not isinstance(d, Mapping):
        raise ProblemFormatError("problem document must be a JSON object")
    kind = d.get("type")
    try:
        if kind == "qubo":
            return build_qubo(_require(d, "Q", "qubo"), d.get("c"), offset=d.get("offset", 0.0))
        if kind == "pubo":
            terms = _require(d, "terms", "pubo", listed=True)
            for t in terms:
                if not (isinstance(t, Mapping) and isinstance(t.get("idx"), (list, tuple)) and "coef" in t):
                    raise ProblemFormatError(f"pubo terms entries must be {{\"idx\": [i, ...], \"coef\": c}}, got {t!r}")
            terms = [(t["idx"], t["coef"]) for t in terms]
            return build_pubo(_require(d, "n", "pubo"), terms, offset=d.get("offset", 0.0))
        if kind == "maxcut":
            return build_maxcut(_require(d, "vertices", "maxcut"), _require(d, "edges", "maxcut", listed=True))
        if kind == "knapsack":
            for key in ("p1", "p2"):  # build_knapsack reads None as its default weight
                if key in d and d[key] is None:
                    raise ProblemFormatError(f"knapsack {key} must be a positive finite number, got null")
            return build_knapsack(
                _require(d, "values", "knapsack"), _require(d, "weights", "knapsack"),
                _require(d, "capacity", "knapsack"), p1=d.get("p1"), p2=d.get("p2"),
            )
    except ProblemFormatError:
        raise
    except (ValueError, TypeError, KeyError) as e:
        raise ProblemFormatError(f"invalid {kind} problem: {e}") from e
    raise ProblemFormatError(f"unknown problem type: {kind!r}")


def load_problem(source):
    """Load a problem from a dict, or from the JSON file at a path.

    Recognized types: qubo {Q, c?, offset?}, pubo {n, terms, offset?},
    maxcut {vertices, edges}, knapsack {values, weights, capacity, p1?, p2?};
    other keys are ignored.  Fields go to the builders unchanged, and what they
    refuse (finite_number and whole_number name the field; so does an explicit null
    p1 or p2, which build_knapsack would read as its default) raises
    ProblemFormatError; a missing file raises FileNotFoundError, an unreadable one OSError.
    """
    if isinstance(source, Mapping):
        return problem_from_dict(source)
    try:
        doc = json.loads(Path(source).read_text())
    except json.JSONDecodeError as e:
        raise ProblemFormatError(f"malformed JSON: {e.msg}", line=e.lineno, column=e.colno) from e
    return problem_from_dict(doc)
