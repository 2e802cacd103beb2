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

Pieces and the family search
----------------------------
`_Pieces` evaluates the inner suprema for a given valuation of the pieces:
`split` gives the best sum over partitions into at most m runs and the width
of a first run attaining it, `scale` the best triple norm over scales
m >= floor and an m attaining it.  The engine values pieces by the norm
itself; `iterate_levels` and `fixed_point_residual` value them by given
level values.

`_Search` is the one family search.  Its state (q, c) says that the next set
starts at or after position q and that c points are already consumed; for
every k it keeps the best sum of set values over families of exactly k sets
and the first set of one family attaining it.  A state either skips point q
or takes a set whose first point is q: a run [q, q+t) in ``segment`` mode,
{q} together with any subset of the later points in ``exhaustive`` mode.

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
consecutive runs realises every such sequence, in either mode, so there the
search takes runs and never skips: exact in both modes, with one state per
position.

Witnesses walk the argmaxes: sets from the search, scales from `scale`,
partition widths from `split`.  Every step re-reads a maximum the norm was
computed from, so no value is matched against a tolerance.

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
from .core import CoefficientPattern, EQ_TOL, FiniteVector, IndexSet, f
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


def _floor_after(consumed: int) -> int:
    """Smallest admissible scale for the next set after `consumed` points."""
    return 2 if consumed <= 1 else (1 << consumed)


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


def _upto(exact: list[float], n: int) -> tuple[float, ...]:
    """Cumulative max: best family sum with at most k sets, k = 0..n."""
    out = [0.0] * (n + 1)
    best = 0.0
    for k in range(1, n + 1):
        if k < len(exact) and exact[k] > best:
            best = exact[k]
        out[k] = best
    return tuple(out)


def _normalised(p: CoefficientPattern) -> tuple[float, CoefficientPattern]:
    """(max(p), p / max(p)): a value on the second times the first is the value on p."""
    s = max(p, default=1.0)
    return s, tuple(v / s for v in p)


def _unscale(s: float, v: float) -> float:
    """A value in units of max(p) back in the units of p; beyond the double range raises."""
    out = s * v
    if math.isinf(out):
        raise OverflowError(f"x2 value {v} * {s} exceeds the double range")
    return out


class _Pieces:
    """Best partition sums and triple norms of patterns, pieces valued by
    `norm_of`; both memoised by pattern."""

    def __init__(self, norm_of: Callable[[CoefficientPattern], float]):
        self.norm_of = norm_of
        self._bps: dict[tuple[CoefficientPattern, int], float] = {}
        self._tn: dict[tuple[CoefficientPattern, int], float] = {}

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


class _Search:
    """The family search over p, called as the memoised map (q, c) -> (best, arg).

    best[k] is the largest sum of tn(set, floor) over families of exactly k
    sets in positions q, q+1, ... after c points were consumed, and
    arg[k] = (a, offsets) the first set of a family attaining it, at
    positions a + o.  `first_floor` overrides the floor of the first set (the
    m0-constrained seminorm); the merged-tail shortcut is then off for the
    first set, because later floors may drop back below it.  A class rather
    than a recursive closure, so the memo is freed as soon as the caller
    drops the search, not at the next cyclic garbage collection.
    """

    def __init__(self, p: CoefficientPattern, tn, first_floor: int, segment: bool):
        self.p, self.tn, self.first_floor = p, tn, first_floor
        self.const = _is_constant(p)
        self.runs = self.const or segment
        self.suffix = [0.0] * (len(p) + 1)
        for i in range(len(p) - 1, -1, -1):
            self.suffix[i] = self.suffix[i + 1] + p[i]
        self.memo: dict[tuple[int, int], tuple[list, list]] = {}

    def __call__(self, q: int, c: int) -> tuple[list, list]:
        hit = self.memo.get((q, c))
        if hit is not None:
            return hit
        p, tn, first_floor, runs = self.p, self.tn, self.first_floor, self.runs
        r = len(p) - q
        fl = max(first_floor, 2) if c == 0 else _floor_after(c)
        if r == 0:
            out = [0.0], [None]
        elif fl >= r and (c > 0 or first_floor <= 2):
            out = [0.0, _ratio(self.suffix[q], fl)], [None, (q, range(r))]
        else:
            # skip point q (never on a constant pattern), or take a set whose
            # first point is q
            best, arg = ([0.0], [None]) if self.const else map(list, self(q + 1, c))
            pq = p[q:]
            for offs in [range(t) for t in range(1, r + 1)] if runs else _first_sets(r):
                tnv = tn(pq[: len(offs)] if runs else tuple(map(pq.__getitem__, offs)), fl)
                rest = self(q + offs[-1] + 1, c + len(offs))[0]
                grow = len(rest) + 1 - len(best)
                if grow > 0:
                    best += [_NEG] * grow
                    arg += [None] * grow
                for k, v in enumerate(rest, 1):
                    if tnv + v > best[k]:
                        best[k] = tnv + v
                        arg[k] = (q, offs)
            out = best, arg
        self.memo[q, c] = out
        return out


class FamilyEngine:
    """Shared-memo evaluator for the family norm and its seminorms.

    All operations are pure; the caches only ever receive idempotent inserts,
    so an instance may be shared across threads and reused across vectors.
    """

    def __init__(self, mode: SearchMode):
        self.mode = mode
        self._norm_memo: dict[CoefficientPattern, float] = {}
        self._sums_memo: dict[tuple[CoefficientPattern, int], tuple[float, ...]] = {}
        self._pieces = _Pieces(self._norm_pattern)

    # ------------------------------------------------------------------
    # public operations
    # ------------------------------------------------------------------

    def norm(self, x: FiniteVector, with_witness: bool = False):
        self._check_support(x)
        s, q = _normalised(x.pattern())
        value = _unscale(s, self._norm_pattern(q))
        if not with_witness:
            return value
        return value, self._build_witness(x, q, s)

    def triple_norm(self, x: FiniteVector, m: int) -> float:
        if m < 2:
            raise ValueError("the triple norm is defined for m >= 2")
        self._check_support(x)
        s, q = _normalised(x.pattern())
        return _unscale(s, _ratio(self._pieces.bps(q, m), m))

    def best_partition_sum(self, x: FiniteVector, m: int) -> float:
        if m < 1:
            raise ValueError("need m >= 1")
        self._check_support(x)
        s, q = _normalised(x.pattern())
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
        s, q = _normalised(x.pattern())
        if not q:
            return 0.0
        return _unscale(s, self._family_sums(q, m0)[min(ell, len(q))] / f(ell))

    def evaluate_family(self, x: FiniteVector, fam: AdmissibleFamily) -> float:
        """Value of one explicit family: a certified lower bound for the norm."""
        fam.validate()
        s = max(x.pattern(), default=1.0)
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
        s, q = _normalised(x.pattern())
        if not q:
            return 0.0
        rhs = self._rhs(q, _Pieces(self._norm_pattern).tn)
        return _unscale(s, abs(self._norm_pattern(q) - rhs))

    def iterate_levels(self, x: FiniteVector) -> list[float]:
        """Level values of the inductive norm construction, up to stabilization.

        Starts every restriction at its sup norm and applies the one-step map
        to all of them simultaneously until nothing moves by EQ_TOL times the
        largest coefficient.  An independent route to the fixed point the
        recursion computes directly.
        """
        self._check_support(x)
        s, q = _normalised(x.pattern())
        if not q:
            return [0.0]
        closure = self._closure(q)
        values = {z: max(z) for z in closure}
        levels = [_unscale(s, values[q])]
        cap = 10 * len(q)
        for _ in range(cap):
            tn = _Pieces(values.__getitem__).tn
            new_values = {z: max(values[z], self._rhs(z, tn)) for z in closure}
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

    def _norm_pattern(self, p: CoefficientPattern) -> float:
        if len(p) <= 2:
            # Closed form: the best family value (a+b)/2 is at most max(a, b).
            return max(p, default=0.0)
        hit = self._norm_memo.get(p)
        if hit is None:
            hit = self._norm_memo[p] = self._rhs(p, self._pieces.tn)
        return hit

    def _rhs(self, p: CoefficientPattern, tn) -> float:
        """Right-hand side of the fixed-point equation at p, sets valued by tn."""
        best = self._search(p, tn, 2)(0, 0)[0]
        return max(max(p), max(best[k] / f(k) for k in range(1, len(best))))

    def _family_sums(self, p: CoefficientPattern, first_floor: int) -> tuple[float, ...]:
        key = (p, first_floor)
        hit = self._sums_memo.get(key)
        if hit is None:
            best = self._search(p, self._pieces.tn, first_floor)(0, 0)[0]
            hit = self._sums_memo[key] = _upto(best, len(p))
        return hit

    def _search(self, p: CoefficientPattern, tn, first_floor: int) -> "_Search":
        return _Search(p, tn, first_floor, self.mode.kind == "segment")

    def _closure(self, p: CoefficientPattern) -> set[CoefficientPattern]:
        """Every sub-pattern the one-step map can touch."""
        n = len(p)
        if self.mode.kind == "exhaustive":
            return {z for k in range(1, n + 1) for z in combinations(p, k)}
        return {p[a:b] for a in range(n) for b in range(a + 1, n + 1)}

    # ------------------------------------------------------------------
    # witness extraction
    # ------------------------------------------------------------------

    def _build_witness(self, x: FiniteVector, q: CoefficientPattern, s: float) -> Witness:
        """Certificate for the norm of x, whose pattern is s * q.  Nodes are
        given by positions in x's support."""
        pieces = self._pieces

        def node(pos: tuple[int, ...]) -> Witness:
            if not pos:
                return SupWitness(0.0, None)
            p = tuple(q[i] for i in pos)
            top = max(p)
            if self._norm_pattern(p) <= top:
                i = pos[p.index(top)]
                return SupWitness(abs(x.coefficients[i]), x.indices[i])
            cont = self._search(p, pieces.tn, 2)
            best = cont(0, 0)[0]
            k = max(range(1, len(best)), key=lambda k: best[k] / f(k))
            pairs, children, a, c = [], [], 0, 0
            for left in range(k, 0, -1):
                start, offs = cont(a, c)[1][left]
                sub = [start + o for o in offs]
                m = pieces.scale(tuple(p[i] for i in sub), _floor_after(c))[1]
                E = tuple(pos[i] for i in sub)
                pairs.append((m, IndexSet.of(x.indices[i] for i in E)))
                children.append(partition(E, m))
                a, c = sub[-1] + 1, c + len(sub)
            return FamilyWitness(_unscale(s, self._norm_pattern(p)), tuple(pairs), tuple(children))

        def partition(pos: tuple[int, ...], m: int) -> PartitionWitness:
            p = tuple(q[i] for i in pos)
            parts, a, left = [], 0, m
            while a < len(p):
                t = pieces.split(p[a:], left)[1]
                seg = pos[a : a + t]
                parts.append((IndexSet.of(x.indices[i] for i in seg), node(seg)))
                a, left = a + t, left - 1
            value = _unscale(s, _ratio(pieces.bps(p, m), m))
            return PartitionWitness(value=value, m=m, divisor=float(m), pieces=tuple(parts))

        return node(tuple(range(len(q))))


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
