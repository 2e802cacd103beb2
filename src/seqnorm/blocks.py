"""Block bases, l_p averages, equivalence constants, and the matrix basis.

The matrix basis here is the natural basis e_{i,j} of the space of bounded
operators on l_inf^n (e_{i,j} sends the k-th unit vector to the j-th when
k = i, else to 0).  Its norm has the closed form

    || sum a_{i,j} e_{i,j} || = max_j sum_i |a_{i,j}|

which is checked against an independent oracle that evaluates the operator
definition directly over all +-1 inputs.  `embed_unconditional` realizes any
1-unconditional sequence given by coordinates in l_inf^n as a block basis of
the matrix basis with the same norm on all coefficient combinations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
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
class AverageSpec:
    """Certificate attached to an assembled l_p^n average.

    `constant` is a certified two-sided equivalence bound C (so the average's
    norm lies in [1/C, C]); `sampled_lower` is the best lower estimate of the
    true constant seen on the sampling scheme; `exact` marks closed-form
    cases where the two coincide.
    """

    p: float
    n: int
    constant: float
    sampled_lower: float
    exact: bool


@dataclass(frozen=True)
class AssembledAverage:
    vector: FiniteVector
    blocks: BlockBasis
    spec: AverageSpec

    @property
    def p(self) -> float:
        return self.spec.p

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def constant(self) -> float:
        return self.spec.constant


def _lp(coeffs: Sequence[float], p: float) -> float:
    if p == math.inf:
        return max((abs(c) for c in coeffs), default=0.0)
    return sum(abs(c) ** p for c in coeffs) ** (1.0 / p)


def _sample_coefficients(n: int, n_random: int, seed: int) -> list[tuple[float, ...]]:
    """Structured sign/indicator patterns plus seeded random directions."""
    samples: list[tuple[float, ...]] = []
    if n <= 6:
        grid: list[tuple[float, ...]] = [()]
        for _ in range(n):
            grid = [t + (v,) for t in grid for v in (-1.0, 0.0, 1.0)]
        samples.extend(t for t in grid if any(t))
    else:
        for i in range(n):
            samples.append(tuple(1.0 if j == i else 0.0 for j in range(n)))
        samples.append((1.0,) * n)
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        v = rng.normal(size=n)
        if np.all(v == 0):
            continue
        samples.append(tuple(float(c) for c in v))
    return samples


@dataclass(frozen=True)
class SamplingScheme:
    seed: int = 0
    n_random: int = 64


class BasisEvaluator:
    """A finite basis together with the norm of coefficient combinations.

    `extreme_points`, when available, returns a finite set certified to
    contain the extreme points of the unit ball of the coefficient norm;
    ratio suprema evaluated there are exact.
    """

    def __init__(self, length: int, func: Callable[[Sequence[float]], float], name: str = ""):
        self.length = length
        self._func = func
        self.name = name

    def __call__(self, coeffs: Sequence[float]) -> float:
        return self._func(coeffs)

    def extreme_points(self) -> list[tuple[float, ...]] | None:
        return None


class LpBasisEvaluator(BasisEvaluator):
    def __init__(self, p: float, n: int):
        super().__init__(n, lambda a: _lp(a, p), name=f"lp({p},{n})")
        self.p = p

    def extreme_points(self):
        n = self.length
        if self.p == math.inf:
            pts: list[tuple[float, ...]] = [()]
            for _ in range(n):
                pts = [t + (s,) for t in pts for s in (-1.0, 1.0)]
            return pts
        if self.p == 1:
            out = []
            for i in range(n):
                for s in (-1.0, 1.0):
                    out.append(tuple(s if j == i else 0.0 for j in range(n)))
            return out
        return None


class EngineBasisEvaluator(BasisEvaluator):
    """Coefficient norm a -> ||sum a_i b_i|| under one of the engines."""

    def __init__(self, engine, blocks: BlockBasis):
        self.engine = engine
        self.blocks = blocks
        super().__init__(
            len(blocks), lambda a: engine.norm(blocks.combine(a)), name="engine-basis"
        )

    def extreme_points(self):
        # Closed form: on two singleton blocks the norm is exactly the max of
        # the absolute coefficients, whose ball is the square.
        if len(self.blocks) == 2 and all(
            v.support_size == 1 and abs(v.coefficients[0]) == 1.0
            for v in self.blocks.vectors
        ):
            return [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]
        return None


@dataclass(frozen=True)
class EquivalenceEstimate:
    lower: float
    exact: bool
    ratio_ab: float  # sup ||.||_A / ||.||_B over the evaluation set
    ratio_ba: float


def equivalence_constant(
    A: BasisEvaluator, B: BasisEvaluator, scheme: SamplingScheme | None = None
) -> EquivalenceEstimate:
    """d(A, B) = sup N_A/N_B * sup N_B/N_A, from samples or certified extremes.

    With extreme points available on both sides each ratio supremum is exact
    (a norm is convex, so its sup over the other ball is attained at ball
    vertices, and ratios are scale invariant); otherwise the result is a
    certified lower bound for the true constant.
    """
    if A.length != B.length:
        raise ValueError(f"length mismatch: {A.length} != {B.length}")
    scheme = scheme or SamplingScheme()
    ext_a = A.extreme_points()
    ext_b = B.extreme_points()
    exact = ext_a is not None and ext_b is not None
    # (N_A(t), N_B(t)) once per point
    if exact:
        on_b = [(A(t), B(t)) for t in ext_b]  # sup of N_A over the B-ball
        on_a = [(A(t), B(t)) for t in ext_a]
    else:
        samples = _sample_coefficients(A.length, scheme.n_random, scheme.seed)
        on_b = on_a = [(A(t), B(t)) for t in samples]
    ratio_ab = max(a / b for a, b in on_b if b > 0)
    ratio_ba = max(b / a for a, b in on_a if a > 0)
    return EquivalenceEstimate(
        lower=ratio_ab * ratio_ba, exact=exact, ratio_ab=ratio_ab, ratio_ba=ratio_ba
    )


def assemble_lp_average(
    blocks: BlockBasis, p: float, engine, scheme: SamplingScheme | None = None
) -> AssembledAverage:
    """Scale the sum of normalized blocks into an l_p^n average.

    Returns the vector n^(-1/p) * sum(blocks) with a certified constant: the
    l1/l_inf sandwich gives C <= n^max(1/p, 1-1/p) for any normalized blocks
    (upper side via the triangle inequality, lower side via restriction
    monotonicity), and closed-form cases tighten it.  `sampled_lower` reports
    the best constant actually witnessed by the sampling scheme.
    """
    n = len(blocks)
    for j, v in enumerate(blocks.vectors, start=1):
        nrm = engine.norm(v)
        if abs(nrm - 1.0) > INEQ_TOL:
            raise BlockBasisError(f"block {j} is not normalized: norm {nrm}")
    scale = 1.0 if p == math.inf else n ** (-1.0 / p)
    vec = blocks.combine([scale] * n)

    if p == math.inf:
        sandwich = float(n)
    else:
        sandwich = float(n) ** max(1.0 / p, 1.0 - 1.0 / p)
    ev = EngineBasisEvaluator(engine, blocks)
    est = equivalence_constant(ev, LpBasisEvaluator(p, n), scheme)
    cap = max(est.ratio_ab, est.ratio_ba)
    exact = est.exact or abs(cap - sandwich) <= EQ_TOL or n == 1
    constant = cap if exact else sandwich
    spec = AverageSpec(p=p, n=n, constant=constant, sampled_lower=cap, exact=exact)
    return AssembledAverage(vector=vec, blocks=blocks, spec=spec)


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


@dataclass(frozen=True)
class EmbeddedBasis:
    """Image of a coordinate sequence under the matrix-basis embedding."""

    coefficients: np.ndarray  # m x n rows, row k = coordinates of the k-th vector
    side: int  # the matrix basis lives on side x side operators
    vectors: tuple[FiniteVector, ...] = field(compare=False, default=())

    def combination_matrix(self, b: Sequence[float]) -> np.ndarray:
        m, n = self.coefficients.shape
        out = np.zeros((self.side, self.side))
        for k in range(m):
            out[k, :n] = b[k] * self.coefficients[k]
        return out

    def combination_norm(self, b: Sequence[float]) -> float:
        return matrix_basis_norm(self.combination_matrix(b))

    def reference_norm(self, b: Sequence[float]) -> float:
        """max_j sum_k |b_k a_{k,j}|: the norm of the original sequence."""
        return float(np.abs(np.asarray(b)[:, None] * self.coefficients).sum(axis=0).max())


def embed_unconditional(
    y_coords, seed: int = 0, trials: int = 64, tol: float = EQ_TOL
) -> EmbeddedBasis:
    """Place row k of `y_coords` into row k of the matrix basis.

    The rows are asserted by the caller to represent a 1-unconditional
    sequence in l_inf^n; a seeded spot check verifies that the coordinate
    norm max_j |sum_k b_k a_{k,j}| is invariant under sign flips of b, and a
    failure is an error.  For unconditional rows the embedding satisfies
    ||sum b_k x_k|| = max_j sum_k |b_k a_{k,j}| = ||sum b_k y_k||.
    """
    arr = np.asarray(y_coords, dtype=float)
    if arr.ndim != 2:
        raise ValueError("need an m x n coordinate array")
    m, n = arr.shape
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        b = rng.normal(size=m)
        eps = rng.choice([-1.0, 1.0], size=m)
        plain = np.abs((b[:, None] * arr).sum(axis=0)).max()
        flipped = np.abs(((eps * b)[:, None] * arr).sum(axis=0)).max()
        if abs(plain - flipped) > tol * max(1.0, plain):
            raise UnconditionalityError(
                f"sign flip changed the coordinate norm: {plain} vs {flipped}"
            )
    side = max(m, n)
    vectors = []
    for k in range(m):
        pairs = []
        for j in range(n):
            c = arr[k, j]
            if c != 0.0:
                pairs.append((k * side + j + 1, c))  # lexicographic flattening
        vectors.append(FiniteVector(pairs))
    return EmbeddedBasis(coefficients=arr, side=side, vectors=tuple(vectors))
