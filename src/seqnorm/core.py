"""Finitely supported vectors, index sets, and the logarithmic weight function.

Everything downstream (both norm engines, the block algebra, the verifiers)
is built on the three primitives in this module: ``FiniteVector`` for elements
of the space of finitely supported real sequences, ``IndexSet`` for the sets a
vector gets restricted to, and the weight ``f(t) = log2(1 + t)``.

All values are double precision floats.  Equality assertions downstream use
``EQ_TOL``; one-sided inequality assertions use ``INEQ_TOL``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable, Iterator, Mapping

EQ_TOL = 1e-12
INEQ_TOL = 1e-9

#: A coefficient pattern: absolute values of the coefficients in index order.
#: Two vectors with the same pattern have the same norm in both engines
#: (1-unconditionality plus 1-subsymmetry), which makes it the memo key.
CoefficientPattern = tuple[float, ...]


def f(t: float) -> float:
    """Weight function f(t) = log2(1 + t).

    Strictly increasing and concave on [0, inf) with f(0) = 0, f(1) = 1,
    f(3) = 2.  Rejects negative input.
    """
    if t < 0:
        raise ValueError(f"f is only defined for t >= 0, got {t}")
    return math.log2(1.0 + t)


def f_exceeds(m: int, budget: int) -> bool:
    """Exact integer test for f(m) > budget when budget is a whole number.

    f(m) > b  <=>  m > 2**b - 1  <=>  m >= 2**b, which avoids comparing
    floats right at the boundary (e.g. f(64) > 6 must hold strictly).
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    return m >= (1 << budget)


def min_m_for_budget(budget: int) -> int:
    """Smallest admissible m after `budget` coordinates have been consumed."""
    return max(2, 1 << budget) if budget >= 0 else 2


def check_f_submultiplicative(x: float, y: float) -> float:
    """Margin f(x)f(y) - f(xy) for x, y >= 1.

    The margin is a nonnegative quantity (equality on the edges x = 1 or
    y = 1); a negative value beyond rounding noise would falsify the
    submultiplicativity fact the step-5 bounds rely on, so it raises.
    """
    if x < 1 or y < 1:
        raise ValueError(f"submultiplicativity margin needs x, y >= 1, got ({x}, {y})")
    margin = f(x) * f(y) - f(x * y)
    if margin < -EQ_TOL:
        raise ArithmeticError(
            f"f(x)f(y) < f(xy) at ({x}, {y}): margin {margin}"
        )
    return margin


@dataclass(frozen=True)
class IndexSet:
    """A finite set of positive integer indices.

    Either a closed integer interval [lo, hi] or an explicit sorted tuple.
    The flavour is remembered so files round-trip unchanged.
    """

    span: tuple[int, int] | None = None
    elems: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if (self.span is None) == (self.elems is None):
            raise ValueError("IndexSet needs exactly one of span/elems")
        if self.span is not None:
            lo, hi = self.span
            if lo < 1 or hi < lo:
                raise ValueError(f"bad interval [{lo}, {hi}]")
        else:
            pts = self.elems
            if any(p < 1 for p in pts):
                raise ValueError("indices must be positive")
            if any(a >= b for a, b in zip(pts, pts[1:])):
                raise ValueError("explicit index set must be sorted and distinct")

    @staticmethod
    def interval(lo: int, hi: int) -> "IndexSet":
        return IndexSet(span=(lo, hi))

    @staticmethod
    def of(indices: Iterable[int]) -> "IndexSet":
        return IndexSet(elems=tuple(sorted(set(indices))))

    @staticmethod
    def empty() -> "IndexSet":
        return IndexSet(elems=())

    @property
    def cardinality(self) -> int:
        if self.span is not None:
            return self.span[1] - self.span[0] + 1
        return len(self.elems)

    @property
    def is_empty(self) -> bool:
        return self.cardinality == 0

    @property
    def min(self) -> int:
        if self.is_empty:
            raise ValueError("empty index set has no min")
        return self.span[0] if self.span is not None else self.elems[0]

    @property
    def max(self) -> int:
        if self.is_empty:
            raise ValueError("empty index set has no max")
        return self.span[1] if self.span is not None else self.elems[-1]

    def __contains__(self, i: int) -> bool:
        if self.span is not None:
            return self.span[0] <= i <= self.span[1]
        return i in self.elems

    def __iter__(self) -> Iterator[int]:
        if self.span is not None:
            return iter(range(self.span[0], self.span[1] + 1))
        return iter(self.elems)

    def precedes(self, other: "IndexSet") -> bool:
        """Successive ordering: every index here is below every index there."""
        if self.is_empty or other.is_empty:
            return True
        return self.max < other.min

    def to_json(self):
        if self.span is not None:
            return [self.span[0], self.span[1]]
        return {"set": list(self.elems)}

    @staticmethod
    def from_json(obj) -> "IndexSet":
        if isinstance(obj, dict):
            return IndexSet.of(obj["set"])
        if isinstance(obj, (list, tuple)) and len(obj) == 2:
            return IndexSet.interval(int(obj[0]), int(obj[1]))
        raise ValueError(f"cannot parse index set from {obj!r}")


class FiniteVector:
    """A finitely supported real sequence on the positive integers.

    Invariants: indices strictly increasing, no stored coefficient is zero.
    The empty vector is allowed and has norm 0 in every norm here.
    Instances are immutable and hashable.
    """

    __slots__ = ("_idx", "_coef")

    def __init__(self, pairs: Iterable[tuple[int, float]]):
        idx: list[int] = []
        coef: list[float] = []
        for i, c in pairs:
            if i != int(i) or i < 1:
                raise ValueError(f"index {i} is not a positive integer")
            c = float(c)
            if c == 0.0:
                continue
            if not math.isfinite(c):
                raise ValueError(f"coefficient at {i} is not finite")
            idx.append(int(i))
            coef.append(c)
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError("indices must be strictly increasing")
        self._idx = tuple(idx)
        self._coef = tuple(coef)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "FiniteVector":
        return FiniteVector(())

    @staticmethod
    def basis(i: int, c: float = 1.0) -> "FiniteVector":
        return FiniteVector(((i, c),))

    @staticmethod
    def ones(n: int, start: int = 1) -> "FiniteVector":
        """Sum of n consecutive unit basis vectors starting at `start`."""
        return FiniteVector((start + j, 1.0) for j in range(n))

    @staticmethod
    def from_dense(values: Iterable[float], start: int = 1) -> "FiniteVector":
        return FiniteVector((start + j, v) for j, v in enumerate(values))

    @staticmethod
    def sum(vectors: Iterable["FiniteVector"], coeffs: Iterable[float] | None = None) -> "FiniteVector":
        """sum_j coeffs[j] * vectors[j] (coefficients 1 if not given), in one pass.

        Each index accumulates its terms in input order, so the result is bit
        for bit that of adding the scaled vectors one after another."""
        acc: dict[int, float] = {}
        for a, v in zip(repeat(1.0) if coeffs is None else coeffs, vectors):
            if a != 0.0:
                for i, c in zip(v._idx, v._coef):
                    acc[i] = acc.get(i, 0.0) + a * c
        return FiniteVector(sorted(acc.items()))

    # -- accessors ----------------------------------------------------

    @property
    def indices(self) -> tuple[int, ...]:
        return self._idx

    @property
    def coefficients(self) -> tuple[float, ...]:
        return self._coef

    @property
    def support_size(self) -> int:
        return len(self._idx)

    @property
    def sup_norm(self) -> float:
        return max((abs(c) for c in self._coef), default=0.0)

    @property
    def l1_norm(self) -> float:
        return sum(abs(c) for c in self._coef)

    def coefficient(self, i: int) -> float:
        from bisect import bisect_left

        k = bisect_left(self._idx, i)
        if k < len(self._idx) and self._idx[k] == i:
            return self._coef[k]
        return 0.0

    def pattern(self) -> CoefficientPattern:
        return tuple(abs(c) for c in self._coef)

    # -- operations ---------------------------------------------------

    def restrict(self, E: IndexSet) -> "FiniteVector":
        """Zero out every coordinate outside E."""
        return FiniteVector(
            (i, c) for i, c in zip(self._idx, self._coef) if i in E
        )

    def spread(self, sigma: Mapping[int, int] | Callable[[int], int]) -> "FiniteVector":
        """Carry coefficients to new indices via a strictly increasing map."""
        if callable(sigma):
            images = [sigma(i) for i in self._idx]
        else:
            try:
                images = [sigma[i] for i in self._idx]
            except KeyError as exc:
                raise ValueError(f"spread map undefined on index {exc.args[0]}") from exc
        for j in images:
            if j != int(j) or j < 1:
                raise ValueError(f"spread image {j} is not a positive integer")
        if any(a >= b for a, b in zip(images, images[1:])):
            raise ValueError("spread map must be strictly increasing on the support")
        return FiniteVector(zip((int(j) for j in images), self._coef))

    def flip_signs(self, signs: Iterable[int]) -> "FiniteVector":
        """Multiply coefficients by the given +-1 pattern, in support order."""
        signs = tuple(signs)
        if len(signs) != len(self._coef):
            raise ValueError("one sign per support point required")
        if any(s not in (-1, 1) for s in signs):
            raise ValueError("signs must be +-1")
        return FiniteVector(
            (i, s * c) for i, c, s in zip(self._idx, self._coef, signs)
        )

    def __add__(self, other: "FiniteVector") -> "FiniteVector":
        merged: dict[int, float] = dict(zip(self._idx, self._coef))
        for i, c in zip(other._idx, other._coef):
            merged[i] = merged.get(i, 0.0) + c
        return FiniteVector(sorted(merged.items()))

    def __sub__(self, other: "FiniteVector") -> "FiniteVector":
        return self + (-other)

    def __neg__(self) -> "FiniteVector":
        return FiniteVector((i, -c) for i, c in zip(self._idx, self._coef))

    def __mul__(self, scalar: float) -> "FiniteVector":
        return FiniteVector((i, scalar * c) for i, c in zip(self._idx, self._coef))

    __rmul__ = __mul__

    # -- protocol -----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteVector)
            and self._idx == other._idx
            and self._coef == other._coef
        )

    def __hash__(self) -> int:
        return hash((self._idx, self._coef))

    def __len__(self) -> int:
        return len(self._idx)

    def __repr__(self) -> str:
        body = " + ".join(f"{c:g}*e{i}" for i, c in zip(self._idx, self._coef))
        return f"FiniteVector({body or '0'})"

    # -- files ----------------------------------------------------------

    def to_json(self) -> dict:
        return {"coords": [[i, c] for i, c in zip(self._idx, self._coef)]}

    @staticmethod
    def from_json(obj: dict) -> "FiniteVector":
        if not isinstance(obj, dict) or "coords" not in obj:
            raise ValueError("vector JSON must be an object with a 'coords' key")
        return FiniteVector((int(i), float(c)) for i, c in obj["coords"])
