"""Block bases, l_p averages, equivalence constants, and the matrix basis.

An l_p^n average is n^(-1/p) times a sum of n normalized blocks; its
constant compares two `BasisEvaluator`s (`lp_basis`, `engine_basis`) by
`equivalence_constant`: exact on known unit-ball vertices, otherwise a lower
bound read on one fixed sample set per length.

The matrix basis here is the natural basis e_{i,j} of the space of bounded
operators on l_inf^n (e_{i,j} sends the k-th unit vector to the j-th when
k = i, else to 0).  Its norm has the closed form `matrix_basis_norm`

    || sum a_{i,j} e_{i,j} || = max_j sum_i |a_{i,j}|

which is checked against an independent oracle that evaluates the operator
definition directly over all +-1 inputs.  `embed_unconditional` realizes any
1-unconditional sequence given by coordinates in l_inf^n as a block basis of
the matrix basis with the same norm on all coefficient combinations;
`EmbeddedBasis` evaluates both sides of that identity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .core import EQ_TOL, FiniteVector, INEQ_TOL


class BlockBasisError(ValueError):
    pass


class UnconditionalityError(ValueError):
    """The randomized sign-invariance spot check failed."""


@dataclass(frozen=True)
class BlockBasis:
    """Finitely many vectors with strictly increasing supports."""

    vectors: tuple[FiniteVector, ...]

    def __post_init__(self) -> None:
        prev = 0
        for j, v in enumerate(self.vectors, start=1):
            if v.support_size == 0:
                raise BlockBasisError(f"block {j} is zero")
            if v.indices[0] <= prev:
                raise BlockBasisError(
                    f"block {j} starts at {v.indices[0]}, not after {prev}"
                )
            prev = v.indices[-1]

    def __len__(self) -> int:
        return len(self.vectors)

    def combine(self, coeffs: Sequence[float]) -> FiniteVector:
        if len(coeffs) != len(self.vectors):
            raise ValueError("one coefficient per block required")
        return FiniteVector.sum(self.vectors, coeffs)

    def to_json(self) -> list:
        return [v.to_json() for v in self.vectors]

    @staticmethod
    def from_json(obj: list) -> "BlockBasis":
        return BlockBasis(tuple(FiniteVector.from_json(v) for v in obj))


@dataclass(frozen=True)
class AssembledAverage:
    """An l_p^n average n^(-1/p) * sum(blocks) with its certificate.

    `constant` is a certified two-sided equivalence bound C (so the average's
    norm lies in [1/C, C]); `sampled_lower` is the best lower estimate of the
    true constant that the evaluation set witnessed; `exact` marks the cases
    where the two coincide.
    """

    vector: FiniteVector
    blocks: BlockBasis
    p: float
    constant: float
    sampled_lower: float
    exact: bool

    @property
    def n(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class BasisEvaluator:
    """A coefficient norm on R^length.

    `extreme_points`, when known, is a finite set certified to contain the
    extreme points of the unit ball of `norm`; ratio suprema evaluated there
    are exact.
    """

    length: int
    norm: Callable[[Sequence[float]], float]
    extreme_points: tuple[tuple[float, ...], ...] | None = None


def _lp(coeffs: Sequence[float], p: float) -> float:
    if p == math.inf:
        return max((abs(c) for c in coeffs), default=0.0)
    return sum(abs(c) ** p for c in coeffs) ** (1.0 / p)


def lp_basis(p: float, n: int) -> BasisEvaluator:
    """The unit vector basis of l_p^n (ball vertices known for p = 1, inf)."""
    if p == math.inf:
        ext = tuple(product((-1.0, 1.0), repeat=n))
    elif p == 1:
        ext = tuple(
            tuple(s if j == i else 0.0 for j in range(n)) for i in range(n) for s in (-1.0, 1.0)
        )
    else:
        ext = None
    return BasisEvaluator(n, lambda a: _lp(a, p), ext)


def engine_basis(engine, blocks: BlockBasis) -> BasisEvaluator:
    """Coefficient norm a -> ||sum a_i b_i|| under one of the engines.

    Closed form: on two singleton blocks of coefficient +-1 whose sum has norm 1
    (in ``x2``, not in ``x1``) the ball is the square, as the norm is 1-unconditional:
    max |a_i| <= ||a|| <= max |a_i| * ||b_1 + b_2||.
    """
    def norm(a):
        return engine.norm(blocks.combine(a))
    square = len(blocks) == 2 and all(
        v.support_size == 1 and abs(v.coefficients[0]) == 1.0 for v in blocks.vectors
    ) and norm((1.0, 1.0)) == 1.0
    return BasisEvaluator(len(blocks), norm, tuple(product((-1.0, 1.0), repeat=2)) if square else None)


@lru_cache(maxsize=32)
def _samples(n: int) -> tuple[tuple[float, ...], ...]:
    """Structured sign/indicator patterns plus 64 seed-0 normal directions."""
    if n <= 6:
        samples = [t for t in product((-1.0, 0.0, 1.0), repeat=n) if any(t)]
    else:
        samples = [tuple(1.0 if j == i else 0.0 for j in range(n)) for i in range(n)]
        samples.append((1.0,) * n)
    samples.extend(tuple(v.tolist()) for v in np.random.default_rng(0).normal(size=(64, n))
                   if v.any())
    return tuple(samples)


@dataclass(frozen=True)
class EquivalenceEstimate:
    lower: float
    exact: bool
    ratio_ab: float  # sup ||.||_A / ||.||_B over the evaluation set
    ratio_ba: float


def equivalence_constant(A: BasisEvaluator, B: BasisEvaluator) -> EquivalenceEstimate:
    """d(A, B) = sup N_A/N_B * sup N_B/N_A, from samples or certified extremes.

    With extreme points on both sides each ratio supremum is exact (a norm is
    convex, so its sup over the other ball is attained at ball vertices, and
    ratios are scale invariant); otherwise it is read on `_samples(length)`
    and the result is a certified lower bound for the true constant.
    """
    if A.length != B.length:
        raise ValueError(f"length mismatch: {A.length} != {B.length}")
    exact = A.extreme_points is not None and B.extreme_points is not None
    # (N_A(t), N_B(t)) once per point
    if exact:
        on_b = [(A.norm(t), B.norm(t)) for t in B.extreme_points]  # sup of N_A over the B-ball
        on_a = [(A.norm(t), B.norm(t)) for t in A.extreme_points]
    else:
        on_b = on_a = [(A.norm(t), B.norm(t)) for t in _samples(A.length)]
    ratio_ab = max(a / b for a, b in on_b if b > 0)
    ratio_ba = max(b / a for a, b in on_a if a > 0)
    return EquivalenceEstimate(
        lower=ratio_ab * ratio_ba, exact=exact, ratio_ab=ratio_ab, ratio_ba=ratio_ba
    )


def check_normalized(blocks: BlockBasis, engine) -> None:
    """Refuse a block whose engine norm is not 1 to INEQ_TOL."""
    for j, v in enumerate(blocks.vectors, start=1):
        nrm = engine.norm(v)
        if abs(nrm - 1.0) > INEQ_TOL:
            raise BlockBasisError(f"block {j} is not normalized: norm {nrm}")


def assemble_lp_average(blocks: BlockBasis, p: float, engine) -> AssembledAverage:
    """Scale the sum of normalized blocks into an l_p^n average.

    Returns the vector n^(-1/p) * sum(blocks) with a certified constant: the
    l1/l_inf sandwich gives C <= n^max(1/p, 1-1/p) for any normalized blocks
    (upper side via the triangle inequality, lower side via restriction
    monotonicity).  `sampled_lower` is the larger ratio supremum that
    `equivalence_constant` reads between the block norm and l_p^n; when it is
    exact, meets the sandwich, or n = 1, it is the constant.
    """
    if not p >= 1:  # below 1 l_p is only a quasi-norm
        raise ValueError(f"an l_p average needs p >= 1, got p={p}")
    n = len(blocks)
    if n == 0:
        raise BlockBasisError("an l_p average needs at least one block")
    check_normalized(blocks, engine)
    vec = blocks.combine([n ** (-1.0 / p)] * n)  # 1/inf = 0: the plain sum
    sandwich = float(n) ** max(1.0 / p, 1.0 - 1.0 / p)
    est = equivalence_constant(engine_basis(engine, blocks), lp_basis(p, n))
    cap = max(est.ratio_ab, est.ratio_ba)
    exact = est.exact or abs(cap - sandwich) <= EQ_TOL or n == 1
    return AssembledAverage(
        vector=vec, blocks=blocks, p=p, constant=cap if exact else sandwich,
        sampled_lower=cap, exact=exact,
    )


# ----------------------------------------------------------------------
# the matrix basis of operators on l_inf^n
# ----------------------------------------------------------------------


def matrix_basis_norm(a) -> float:
    """Closed form: max over columns of the column's absolute sum."""
    arr = np.asarray(a, dtype=float)
    if arr.size == 0:
        return 0.0
    if arr.ndim != 2:
        raise ValueError("need a 2d coefficient array")
    return float(np.abs(arr).sum(axis=0).max())


def operator_norm_oracle(a) -> float:
    """Independent evaluation via the operator definition.

    The operator sum a_{k,j} e_{k,j} maps u to sum_j (sum_k u_k a_{k,j}) f_j;
    its norm on l_inf^n is the max over sign vectors u of the image's sup
    norm.  Exponential in the row count, hence the size guard.
    """
    arr = np.asarray(a, dtype=float)
    if arr.size == 0:
        return 0.0
    if arr.ndim != 2:
        raise ValueError("need a 2d coefficient array")
    rows = arr.shape[0]
    if rows > 20:
        raise ValueError(f"{rows} rows is too large for the sign enumeration")
    signs = np.array(
        [[1.0 if mask >> i & 1 else -1.0 for i in range(rows)] for mask in range(1 << rows)]
    )
    images = signs @ arr
    return float(np.abs(images).max())


def _linf_combination(b: Sequence[float], rows: np.ndarray) -> float:
    """max_j |sum_k b_k a_{k,j}|: the l_inf^n norm of sum b_k (row k)."""
    return float(np.abs((np.asarray(b, dtype=float)[:, None] * rows).sum(axis=0)).max())


@dataclass(frozen=True)
class EmbeddedBasis:
    """Image of a coordinate sequence under the matrix-basis embedding."""

    coefficients: np.ndarray  # m x n rows, row k = coordinates of the k-th vector
    side: int  # the matrix basis lives on side x side operators
    vectors: tuple[FiniteVector, ...] = field(compare=False)  # flattened e_{k,j} -> k*side+j+1

    def combination_norm(self, b: Sequence[float]) -> float:
        """||sum b_k x_k||: the embedded combination, un-flattened into a
        side x side matrix, under the matrix-basis closed form."""
        x = FiniteVector.sum(self.vectors, b)
        out = np.zeros((self.side, self.side))
        for i, c in zip(x.indices, x.coefficients):
            out[divmod(i - 1, self.side)] = c
        return matrix_basis_norm(out)

    def reference_norm(self, b: Sequence[float]) -> float:
        """||sum b_k y_k|| in l_inf^n, the norm of the original sequence."""
        return _linf_combination(b, self.coefficients)


def embed_unconditional(y_coords, seed: int = 0) -> EmbeddedBasis:
    """Place row k of `y_coords` into row k of the matrix basis.

    The rows are asserted by the caller to represent a 1-unconditional
    sequence in l_inf^n; a seeded spot check of 64 trials verifies that the
    coordinate norm max_j |sum_k b_k a_{k,j}| is invariant, to EQ_TOL, under
    sign flips of b, and a failure is an error.  For unconditional rows the
    embedding satisfies ||sum b_k x_k|| = max_j sum_k |b_k a_{k,j}| = ||sum b_k y_k||.
    """
    arr = np.asarray(y_coords, dtype=float)
    if arr.ndim != 2:
        raise ValueError("need an m x n coordinate array")
    m, n = arr.shape
    rng = np.random.default_rng(seed)
    for _ in range(64):
        b = rng.normal(size=m)
        eps = rng.choice([-1.0, 1.0], size=m)
        plain = _linf_combination(b, arr)
        flipped = _linf_combination(eps * b, arr)
        if abs(plain - flipped) > EQ_TOL * max(1.0, plain):
            raise UnconditionalityError(
                f"sign flip changed the coordinate norm: {plain} vs {flipped}"
            )
    side = max(m, n)
    vectors = tuple(
        FiniteVector((k * side + j + 1, c) for j, c in enumerate(row))  # lexicographic flattening
        for k, row in enumerate(arr)
    )
    return EmbeddedBasis(coefficients=arr, side=side, vectors=vectors)
