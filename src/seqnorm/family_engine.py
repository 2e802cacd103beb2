"""Engine for the implicitly defined admissible-family norm (space "x2").

The norm satisfies the fixed-point equation

    ||x|| = max( ||x||_inf ,
                 sup { (1/f(l)) * sum_i |||E_i x|||_{m_i} } )

with the sup over admissible families, where the triple norm is

    |||y|||_m = sup { (1/m) * sum_j ||F_j y|| : F_1 < ... < F_m }.

On finitely supported vectors the fixed point is well defined by recursion on
support size: a partition piece equal to the whole vector is dominated by any
two-way split (each level of the construction is a norm, so the triangle
inequality holds), hence every supremum is attained among strictly smaller
restrictions.  The same monotonicity lets partition pieces be taken as
consecutive runs covering the whole set, which is exact because the inner
suprema carry no cardinality budget.

One recursion per supremum
--------------------------
`_Pieces` evaluates every supremum of the equation, each memoised by
coefficient pattern: `norm_of` the norm, `split` the best sum over
partitions into at most m runs (and the width of a first run attaining it),
`scale` the best triple norm over scales m >= floor (and an m attaining
it), `family` the family search.  The engine values pieces by the norm
itself; `iterate_levels` and `fixed_point_residual` value them by given
values, in a fresh `_Pieces` for each level.

`family(p, c, first_floor)` is the one family search.  A set's value and the
floors of later sets depend only on the points left, p, and on the c points
already consumed, so the state is keyed by the suffix pattern p itself, not
by positions in a root: every sub-pattern ending in p shares it (in segment
mode, every run of the root that ends where p ends).  For every k it keeps
the best sum of set values over families of exactly k sets and the offsets
of the first set of one family attaining it.  A state either skips p[0] or
takes a set whose first point is p[0]: a run p[:t] in ``segment`` mode, p[0]
together with any subset of the later points in ``exhaustive`` mode.  The
leaves (nothing left, or the merged tail below) cost O(len(p)) and are not
stored: storing them would more than triple the search memo of a random
32-point segment root.  Search states are kept for the root of the last
public operation only, and dropped when one starts on another root (as the
``x1`` engine keeps its last root's tables); the norm, partition and
triple-norm memos persist.

Search modes
------------
``exhaustive``
    Family sets range over arbitrary subsets of the support.  Exact by
    definition; accepted only up to ``max_support`` points (default 12).
``segment``
    Family sets are restricted to consecutive runs of support points with
    free gaps between sets.  A certified lower bound for the exhaustive
    value, fast at any support size, and exact on constant patterns -- but
    not in general: omitting a small interior point from a set can relax the
    cardinality budget enough to win (frozen counterexample in the tests).
    The modes are cross-validated and strict gaps are reported as
    diagnostics by the acceptance suite.

The search prunes with an exact dominance rule: the admissibility budget
forces the next scale m to be at least max(2, 2**consumed), so once that
floor reaches the number of remaining support points every later triple norm
degenerates to l1/floor, and a single merged final set (all remaining points)
dominates any further splitting while using fewer sets.  The pruning
preserves "best family sum with at most k sets" exactly, which is the
quantity all the seminorms are derived from.

On a constant pattern every set of t points has the same pattern, and
admissibility depends only on cardinalities, so a family's value depends
only on its sequence of set sizes.  Packing the sets flush left as
consecutive runs realises every such sequence, in either mode.  A state
whose own suffix is constant therefore takes runs and never skips, exact in
both modes, whatever the rest of the root looks like.

Witnesses walk the argmaxes: sets from the search (past its skip markers),
scales from `scale`, partition widths from `split`.  Every step re-reads a
maximum the norm was computed from, so no value is matched against a
tolerance.

Every public operation evaluates the pattern p / max(p) and multiplies the
result by max(p), so values are homogeneous over the whole double range; a
result beyond it raises OverflowError.  Constant patterns thereby collapse
onto (1, ..., 1).  Sub-patterns of a normalised root are used as they are.

Memoization is keyed by coefficient pattern (absolute coefficients in index
order), which is sound because the norm is 1-unconditional and 1-subsymmetric;
both properties are themselves under test.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable

from .admissible import AdmissibleFamily
from .core import CoefficientPattern, EQ_TOL, FiniteVector, IndexSet, f, min_m_for_budget
from .witness import FamilyWitness, PartitionWitness, SupWitness, Witness

_NEG = float("-inf")
# Floors beyond this many bits overflow floats; the contribution is zero.
_FLOOR_BITS_CAP = 1020


class SupportLimitError(ValueError):
    """Exhaustive mode rejected a vector whose support exceeds the limit."""


class IterationCapError(RuntimeError):
    """Level iteration exceeded its cap without stabilizing."""


@dataclass(frozen=True)
class SearchMode:
    kind: str
    max_support: int = 12

    def __post_init__(self) -> None:
        if self.kind not in ("exhaustive", "segment"):
            raise ValueError(f"unknown search mode {self.kind!r}")


def Exhaustive(max_support: int = 12) -> SearchMode:
    return SearchMode("exhaustive", max_support)


def SegmentDP() -> SearchMode:
    return SearchMode("segment", 0)


@lru_cache(maxsize=32)
def _first_sets(r: int) -> tuple[tuple[int, ...], ...]:
    """Every subset of range(r) that contains 0, ascending."""
    return tuple((0,) + rest for k in range(r) for rest in combinations(range(1, r), k))


def _is_constant(p: CoefficientPattern) -> bool:
    return len(p) > 1 and min(p) == max(p)


def _ratio(l1: float, fl: int) -> float:
    if fl.bit_length() > _FLOOR_BITS_CAP:
        return 0.0
    return l1 / fl


def _unscale(s: float, v: float) -> float:
    """A value in units of max(p) back in the units of p; beyond the double range raises."""
    out = s * v
    if math.isinf(out):
        raise OverflowError(f"x2 value {v} * {s} exceeds the double range")
    return out


class _Pieces:
    """The sups of the fixed-point equation, each memoised by pattern: the
    norm, best partition sums, triple norms and the family search.

    Pieces are valued by the norm (`norm_of`), or by given values when
    `norm_of` is passed: a level's values in `iterate_levels`, the engine's
    norm in `fixed_point_residual`.  Search states are kept for one root.
    """

    def __init__(self, segment: bool, norm_of: Callable[[CoefficientPattern], float] | None = None):
        self.segment, self.root = segment, None
        if norm_of is not None:
            self.norm_of = norm_of
        self._norm: dict[CoefficientPattern, float] = {}
        self._bps: dict[tuple[CoefficientPattern, int], float] = {}
        self._tn: dict[tuple[CoefficientPattern, int], float] = {}
        self._family: dict[tuple[CoefficientPattern, int, int], tuple[list, list]] = {}

    def start(self, root: CoefficientPattern) -> None:
        """Begin an operation on `root`: drop the search states of any other root."""
        if root != self.root:
            self._family.clear()
            self.root = root

    def norm_of(self, p: CoefficientPattern) -> float:
        if len(p) <= 2:
            # Closed form: the best family value (a+b)/2 is at most max(a, b).
            return max(p, default=0.0)
        hit = self._norm.get(p)
        if hit is None:
            hit = self._norm[p] = self.rhs(p)
        return hit

    def rhs(self, p: CoefficientPattern) -> float:
        """Right-hand side of the fixed-point equation at p."""
        best = self.family(p, 0, 2)[0]
        return max(max(p), max(best[k] / f(k) for k in range(1, len(best))))

    def split(self, p: CoefficientPattern, m: int) -> tuple[float, int]:
        """Best sum of piece values over partitions of p into at most m runs,
        and the width of the first run of a partition attaining it."""
        n = len(p)
        if m >= n:
            return sum(p), 1
        if m == 1:
            return self.norm_of(p), n
        best, width = _NEG, 0
        for t in range(1, n):
            cand = self.norm_of(p[:t]) + self.bps(p[t:], m - 1)
            if cand > best:
                best, width = cand, t
        return best, width

    def bps(self, p: CoefficientPattern, m: int) -> float:
        if m >= len(p):
            return sum(p)
        if m == 1:
            return self.norm_of(p)
        key = (p, m)
        hit = self._bps.get(key)
        if hit is None:
            hit = self._bps[key] = self.split(p, m)[0]
        return hit

    def scale(self, p: CoefficientPattern, fl: int) -> tuple[float, int]:
        """max over admissible scales m >= fl of |||p|||_m, and the least m
        attaining it.  Beyond the support size the value is l1/m and strictly
        decreasing, so the scan stops at len(p)."""
        n = len(p)
        if fl >= n:
            return _ratio(sum(p), fl), fl
        best, arg = _NEG, fl
        for m in range(fl, n + 1):
            cand = self.bps(p, m) / m
            if cand > best:
                best, arg = cand, m
        return best, arg

    def tn(self, p: CoefficientPattern, fl: int) -> float:
        if fl >= len(p):
            return _ratio(sum(p), fl)
        key = (p, fl)
        hit = self._tn.get(key)
        if hit is None:
            hit = self._tn[key] = self.scale(p, fl)[0]
        return hit

    def family(self, p: CoefficientPattern, c: int, first_floor: int) -> tuple[list, list]:
        """The family search over p after c points were consumed: (best, arg).

        best[k] is the largest sum of tn(set, floor) over families of exactly
        k sets in p; arg[k] is the offsets in p of the first set of a family
        attaining it, or None if that family leaves p[0] out (then read the
        state of p[1:]).  `first_floor` raises the floor of the first set (the
        m0-constrained seminorm); the merged-tail shortcut is then off for the
        first set, because later floors may drop back below it.  The leaves
        (empty p, merged tail) are computed on every call, not stored.
        """
        ff = first_floor if c == 0 else 2
        fl, r = max(ff, min_m_for_budget(c)), len(p)
        if r == 0:
            return [0.0], [None]
        if fl >= r and ff <= 2:
            return [0.0, _ratio(sum(p), fl)], [None, range(r)]
        key = (p, c, ff)
        hit = self._family.get(key)
        if hit is not None:
            return hit
        # skip p[0] (never on a constant pattern), or take a set whose first
        # point is p[0]
        const = _is_constant(p)
        runs = const or self.segment
        best = [0.0] if const else list(self.family(p[1:], c, ff)[0])
        arg = [None] * len(best)
        for offs in [range(t) for t in range(1, r + 1)] if runs else _first_sets(r):
            tnv = self.tn(p[: len(offs)] if runs else tuple(map(p.__getitem__, offs)), fl)
            rest = self.family(p[offs[-1] + 1 :], c + len(offs), ff)[0]
            grow = len(rest) + 1 - len(best)
            if grow > 0:
                best += [_NEG] * grow
                arg += [None] * grow
            for k, v in enumerate(rest, 1):
                if tnv + v > best[k]:
                    best[k] = tnv + v
                    arg[k] = offs
        out = self._family[key] = best, arg
        return out


class FamilyEngine:
    """Shared-memo evaluator for the family norm and its seminorms.

    Every memo entry is a function of its key alone, so no value depends on
    the operations run before it.  Search states are dropped whenever an
    operation starts on another root, so an instance shared across threads
    stays correct but may repeat a search.
    """

    def __init__(self, mode: SearchMode):
        self.mode = mode
        self._pieces = _Pieces(mode.kind == "segment")

    # ------------------------------------------------------------------
    # public operations
    # ------------------------------------------------------------------

    def norm(self, x: FiniteVector, with_witness: bool = False):
        self._check_support(x)
        s, q = self._root(x)
        value = _unscale(s, self._pieces.norm_of(q))
        if not with_witness:
            return value
        return value, self._node(x, q, s, tuple(range(len(q))))

    def triple_norm(self, x: FiniteVector, m: int) -> float:
        if m < 2:
            raise ValueError("the triple norm is defined for m >= 2")
        self._check_support(x)
        s, q = self._root(x)
        return _unscale(s, _ratio(self._pieces.bps(q, m), m))

    def best_partition_sum(self, x: FiniteVector, m: int) -> float:
        if m < 1:
            raise ValueError("need m >= 1")
        self._check_support(x)
        s, q = self._root(x)
        return _unscale(s, self._pieces.bps(q, m))

    def norm_ell(self, x: FiniteVector, ell: int) -> float:
        """Best family value at exactly `ell` pairs (trailing empty sets allowed)."""
        return self.norm_ell_m0(x, ell, 2)

    def norm_ell_m0(self, x: FiniteVector, ell: int, m0: int) -> float:
        """Like norm_ell but the first (nonempty) set's scale must be >= m0."""
        if ell < 1:
            raise ValueError("need ell >= 1")
        if m0 < 2:
            raise ValueError("need m0 >= 2")
        self._check_support(x)
        s, q = self._root(x)
        # best[0] = 0 is the empty family: the max is over at most ell sets
        best = self._pieces.family(q, 0, m0)[0]
        return _unscale(s, max(best[: ell + 1]) / f(ell))

    def evaluate_family(self, x: FiniteVector, fam: AdmissibleFamily) -> float:
        """Value of one explicit family: a certified lower bound for the norm."""
        fam.validate()
        s, _ = self._root(x)
        total = 0.0
        for m, E in fam.pairs:
            sub = tuple(v / s for v in x.restrict(E).pattern())
            if sub:
                total += _ratio(self._pieces.bps(sub, m), m)
        return _unscale(s, total / f(fam.length))

    def fixed_point_residual(self, x: FiniteVector) -> float:
        """|LHS - RHS| of the implicit equation, the RHS supremum re-evaluated
        one step with the computed norm as the piece oracle."""
        self._check_support(x)
        s, q = self._root(x)
        if not q:
            return 0.0
        rhs = _Pieces(self._pieces.segment, self._pieces.norm_of).rhs(q)
        return _unscale(s, abs(self._pieces.norm_of(q) - rhs))

    def iterate_levels(self, x: FiniteVector) -> list[float]:
        """Level values of the inductive norm construction, up to stabilization.

        Starts every restriction at its sup norm and applies the one-step map
        to all of them simultaneously until nothing moves by EQ_TOL times the
        largest coefficient.  An independent route to the fixed point the
        recursion computes directly.
        """
        self._check_support(x)
        s, q = self._root(x)
        if not q:
            return [0.0]
        closure = self._closure(q)
        values = {z: max(z) for z in closure}
        levels = [_unscale(s, values[q])]
        cap = 10 * len(q)
        for _ in range(cap):
            pieces = _Pieces(self._pieces.segment, values.__getitem__)
            new_values = {z: max(values[z], pieces.rhs(z)) for z in closure}
            delta = max(new_values[z] - values[z] for z in closure)
            values = new_values
            levels.append(_unscale(s, values[q]))
            if delta < EQ_TOL:  # q has largest coefficient 1
                return levels
        raise IterationCapError(
            f"no stabilization within {cap} levels; last value {levels[-1]}"
        )

    # ------------------------------------------------------------------
    # pattern-level core
    # ------------------------------------------------------------------

    def _check_support(self, x: FiniteVector) -> None:
        if self.mode.kind == "exhaustive" and x.support_size > self.mode.max_support:
            raise SupportLimitError(
                f"support {x.support_size} exceeds exhaustive limit "
                f"{self.mode.max_support}; use segment mode"
            )

    def _root(self, x: FiniteVector) -> tuple[float, CoefficientPattern]:
        """(max(p), p / max(p)) for the pattern p of x, whose normalised
        pattern becomes the root of the search states.  A value on the second
        times the first is the value on p."""
        p = x.pattern()
        s = max(p, default=1.0)
        q = tuple(v / s for v in p)
        self._pieces.start(q)
        return s, q

    def _closure(self, p: CoefficientPattern) -> set[CoefficientPattern]:
        """Every sub-pattern the one-step map can touch."""
        n = len(p)
        if self.mode.kind == "exhaustive":
            return {z for k in range(1, n + 1) for z in combinations(p, k)}
        return {p[a:b] for a in range(n) for b in range(a + 1, n + 1)}

    # ------------------------------------------------------------------
    # witness extraction
    # ------------------------------------------------------------------

    def _node(self, x: FiniteVector, q: CoefficientPattern, s: float, pos: tuple[int, ...]) -> Witness:
        """Certificate for the norm of x on the support positions pos; the
        pattern of x is s * q."""
        if not pos:
            return SupWitness(0.0, None)
        pieces = self._pieces
        p = tuple(q[i] for i in pos)
        top = max(p)
        if pieces.norm_of(p) <= top:
            i = pos[p.index(top)]
            return SupWitness(abs(x.coefficients[i]), x.indices[i])
        best = pieces.family(p, 0, 2)[0]
        k = max(range(1, len(best)), key=lambda k: best[k] / f(k))
        pairs, children, a, c = [], [], 0, 0
        for left in range(k, 0, -1):
            offs = pieces.family(p[a:], c, 2)[1][left]
            while offs is None:  # the family leaves p[a] out
                a += 1
                offs = pieces.family(p[a:], c, 2)[1][left]
            sub = [a + o for o in offs]
            m = pieces.scale(tuple(p[i] for i in sub), min_m_for_budget(c))[1]
            E = tuple(pos[i] for i in sub)
            pairs.append((m, IndexSet.of(x.indices[i] for i in E)))
            children.append(self._partition(x, q, s, E, m))
            a, c = sub[-1] + 1, c + len(sub)
        return FamilyWitness(_unscale(s, pieces.norm_of(p)), tuple(pairs), tuple(children))

    def _partition(self, x: FiniteVector, q: CoefficientPattern, s: float,
                   pos: tuple[int, ...], m: int) -> PartitionWitness:
        pieces = self._pieces
        p = tuple(q[i] for i in pos)
        parts, a, left = [], 0, m
        while a < len(p):
            t = pieces.split(p[a:], left)[1]
            seg = pos[a : a + t]
            parts.append((IndexSet.of(x.indices[i] for i in seg), self._node(x, q, s, seg)))
            a, left = a + t, left - 1
        value = _unscale(s, _ratio(pieces.bps(p, m), m))
        return PartitionWitness(value=value, m=m, divisor=float(m), pieces=tuple(parts))


# ----------------------------------------------------------------------
# module-level functional surface
# ----------------------------------------------------------------------

_ENGINES: dict[SearchMode, FamilyEngine] = {}


def get_engine(mode: SearchMode | None = None) -> FamilyEngine:
    mode = mode or Exhaustive()
    eng = _ENGINES.get(mode)
    if eng is None:
        eng = _ENGINES[mode] = FamilyEngine(mode)
    return eng


def norm_x2(x: FiniteVector, mode: SearchMode | None = None, with_witness: bool = False):
    return get_engine(mode).norm(x, with_witness=with_witness)


def triple_norm(x: FiniteVector, m: int, mode: SearchMode | None = None) -> float:
    return get_engine(mode).triple_norm(x, m)


def best_partition_sum(x: FiniteVector, m: int, mode: SearchMode | None = None) -> float:
    return get_engine(mode).best_partition_sum(x, m)


def norm_ell(x: FiniteVector, ell: int, mode: SearchMode | None = None) -> float:
    return get_engine(mode).norm_ell(x, ell)


def norm_ell_m0(x: FiniteVector, ell: int, m0: int, mode: SearchMode | None = None) -> float:
    return get_engine(mode).norm_ell_m0(x, ell, m0)


def evaluate_family(x: FiniteVector, fam: AdmissibleFamily, mode: SearchMode | None = None) -> float:
    return get_engine(mode).evaluate_family(x, fam)


def iterate_levels_x2(x: FiniteVector, mode: SearchMode | None = None) -> list[float]:
    return get_engine(mode).iterate_levels(x)


def check_fixed_point_x2(x: FiniteVector, mode: SearchMode | None = None) -> float:
    return get_engine(mode).fixed_point_residual(x)
