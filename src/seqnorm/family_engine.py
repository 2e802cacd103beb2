"""Engine for the implicitly defined admissible-family norm (space "x2").

The norm satisfies the fixed-point equation

    ||x|| = max( ||x||_inf , sup { (1/f(l)) * sum_i |||E_i x|||_{m_i} } )

with the sup over admissible families, where the triple norm is

    |||y|||_m = sup { (1/m) * sum_j ||F_j y|| : F_1 < ... < F_m }.

On finitely supported vectors the fixed point is well defined by recursion on
support size: a partition piece equal to the whole vector is dominated by any
two-way split (each level of the construction is a norm), and partition pieces
may be taken as consecutive runs, as the inner suprema carry no cardinality
budget.  After c consumed points the next scale is at least max(2, 2**c), and
that floor is the best scale of a set; once it reaches the points left, one
merged final set dominates and the search stops (proofs in `run_tables`).

``segment`` mode restricts family sets to runs of support points, so every
piece is a run of the root: it fills the interval tables of `run_tables` for
the last root, with rows for the floors and the counts a caller asks for,
closed under halving, in O(n^3 log n) additions.  It gives a certified lower
bound, exact on constant patterns but not in general (frozen counterexample in
the tests).  ``exhaustive`` mode takes arbitrary subsets, up to
``max_support`` points (default `MAX_EXHAUSTIVE_SUPPORT`), on one `_Pieces` per
root; every supremum is memoised by coefficient pattern in dicts the engine
shares across roots, sound because the norm is 1-unconditional and
1-subsymmetric (both under test), and only the last root's family search
states are kept.  One walker over root positions, which both modes answer with
the sets, scales and pieces attaining each maximum, builds the witnesses.
Both modes scale a root by the power of two of `run_tables.scale_exp`, and
`FamilyEngine` is a `run_tables.Engine`, the frame it shares with ``x1``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Sequence

import numpy as np

from .admissible import AdmissibleFamily
from .core import CoefficientPattern, FiniteVector, IndexSet, f, min_m_for_budget
from .run_tables import Engine, IterationCapError, RunTables, iterate, rests, scale_exp, unscale
from .witness import FamilyWitness, PartitionWitness, SupWitness, Witness

_NEG = float("-inf")
# Floors beyond this many bits overflow floats; the contribution is zero.
_FLOOR_BITS_CAP = 1020
# The default support limit of exhaustive mode (a 12-point norm takes about a second).
MAX_EXHAUSTIVE_SUPPORT = 12


class SupportLimitError(ValueError):
    """Exhaustive mode rejected a vector whose support exceeds the limit."""


@dataclass(frozen=True)
class SearchMode:
    kind: str
    max_support: int = MAX_EXHAUSTIVE_SUPPORT

    def __post_init__(self) -> None:
        if self.kind not in ("exhaustive", "segment"):
            raise ValueError(f"unknown search mode {self.kind!r}")


def Exhaustive(max_support: int = MAX_EXHAUSTIVE_SUPPORT) -> SearchMode:
    return SearchMode("exhaustive", max_support)


def SegmentDP() -> SearchMode:
    return SearchMode("segment", 0)


@lru_cache(maxsize=32)
def _first_sets(r: int) -> tuple[tuple[int, ...], ...]:
    """Every subset of range(r) that contains 0, ascending."""
    return tuple((0,) + rest for k in range(r) for rest in combinations(range(1, r), k))


def _ratio(l1: float, fl: int) -> float:
    if fl.bit_length() > _FLOOR_BITS_CAP:
        return 0.0
    return l1 / fl


class _Pieces:
    """Exhaustive mode's answers on one root p, by positions of q = p * 2**-exp
    (`scale_exp`): the sups of the fixed-point equation, memoised by pattern in
    the engine's norm and partition-sum dicts (`memos`, shared across roots),
    and this root's family search states.  Helper pieces in `residual` and
    `levels` take given piece values as their norm memo."""

    def __init__(self, p: CoefficientPattern, memos: tuple[dict, dict]):
        self.p, self.exp = p, scale_exp(p)
        self.q = tuple(math.ldexp(v, -self.exp) for v in p)
        self._norm, self._bps = memos
        self._family: dict[tuple[CoefficientPattern, int, int], tuple[list, list]] = {}

    def fill(self) -> None:
        """Nothing to fill ahead: the searches fill their memos as they are asked."""

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
        const = r > 1 and min(p) == max(p)
        best = [0.0] if const else list(self.family(p[1:], c, ff)[0])
        arg = [None] * len(best)
        for offs in [range(t) for t in range(1, r + 1)] if const else _first_sets(r):
            sub = p[: len(offs)] if const else tuple(map(p.__getitem__, offs))
            tnv = _ratio(self.bps(sub, fl), fl)  # the triple norm at scales >= fl (floor rule)
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

    def _at(self, pos: Sequence[int] | None) -> CoefficientPattern:
        # positions are increasing, so len(pos) == len(q) means the root
        if pos is None or len(pos) == len(self.q):
            return self.q
        return tuple(map(self.q.__getitem__, pos))

    def value(self, pos: Sequence[int] | None = None) -> float:
        return self.norm_of(self._at(pos))

    def best(self, pos: Sequence[int] | None, m: int) -> float:
        return self.bps(self._at(pos), m)

    def root_best(self, m0: int) -> list:
        return self.family(self.q, 0, m0)[0]

    def sets(self, pos: Sequence[int]) -> list[tuple[tuple[int, ...], int]]:
        """(positions, scale) of the sets of a family attaining the norm at
        pos; empty if the sup norm attains it."""
        p = self._at(pos)
        if self.norm_of(p) <= max(p):
            return []
        best = self.family(p, 0, 2)[0]
        k = max(range(1, len(best)), key=lambda k: best[k] / f(k))
        out, a, c = [], 0, 0
        for left in range(k, 0, -1):
            offs = self.family(p[a:], c, 2)[1][left]
            while offs is None:  # the family leaves p[a] out
                a += 1
                offs = self.family(p[a:], c, 2)[1][left]
            sub = [a + o for o in offs]
            out.append((tuple(pos[i] for i in sub), min_m_for_budget(c)))
            a, c = sub[-1] + 1, c + len(sub)
        return out

    def parts(self, pos: Sequence[int], m: int) -> list[Sequence[int]]:
        """The pieces of a partition of pos into at most m runs attaining `best`."""
        p, out, a = self._at(pos), [], 0
        while a < len(p):
            t = self.split(p[a:], m - len(out))[1]
            out.append(pos[a : a + t])
            a += t
        return out

    def residual(self) -> float:
        """`FamilyEngine.fixed_point_residual` at the root."""
        return unscale(abs(self.value() - _Pieces(self.p, (self._norm, {})).rhs(self.q)), self.exp)

    def levels(self) -> list[float]:
        """`RunTables.levels` on every restriction of the root, the sup norm of
        each as its first level."""
        q = self.q
        closure = list({z for k in range(1, len(q) + 1) for z in combinations(q, k)})

        def step(values):
            pieces = _Pieces(self.p, (dict(zip(closure, values.tolist())), {}))
            return np.array([pieces.rhs(z) for z in closure])
        return iterate(np.array([max(z) for z in closure]), step, closure.index(q), max(q),
                       10 * len(q), self.exp)


class _Segment(RunTables):
    """Segment mode: the run tables of one root with C_m for its floors, the
    family states F = `_family` of `run_tables` (k < K) and the triple norms
    `tn` = C_fl / fl they were searched on.  Rows c >= nc pad F with merged tails
    [0, l1 / 2**c], so one view of F holds the rest of a first run of t <= nc."""

    def __init__(self, p: CoefficientPattern):
        n = len(p)
        self.nc = max(2, (n - 1).bit_length())  # c = 0 .. floor(log2(n - 1)) are searched
        self.K = self.nc + 2  # at most nc + 1 sets
        self.floors = np.array([max(2, 1 << c) for c in range(2 * self.nc)])
        super().__init__(p, self.floors[: self.nc].tolist())
        self.fk = np.array([f(k) for k in range(1, self.K)])
        self.pow2 = np.ldexp(1.0, -np.add.outer(np.arange(self.nc), np.arange(n + 1)))
        # the states searched at length L: c < cl[L], those with fl(c) < L
        self.cl = [0, 0, 0] + [min(self.nc, (L - 1).bit_length()) for L in range(3, n + 1)]

    def _views(self, F):
        """V[c, L, t-1, s] = F[c+t, L-t, s+t] for t <= nc, a view inside F; W = rests(l1)."""
        f0, f1, f2, f3 = F.strides
        return (np.ndarray((self.nc, F.shape[1], self.nc, *F.shape[2:]), F.dtype, F,
                           f0 - f1 + f2, (f0, f1, f0 - f1 + f2, f2, f3)), rests(self.l1))

    def outer(self, C, values, keep):
        nc, (rows, cols) = self.nc, self.l1.shape
        # every state starts as a merged tail, one run of all L points at
        # tn = l1 / fl(c); the search below replaces the states with fl(c) < L
        tn = self.l1 / self.floors[:, None, None]  # at floor fl(c), by length and start
        F = np.full((2 * nc, rows, cols + 1, self.K), _NEG)
        F[..., 0] = 0.0
        F[:, 1:, :cols, 1], tn = tn[:, 1:], tn[:nc]
        V, W = self._views(F) if cols > 2 else (None, None)  # no length <= 2 is searched
        fr = np.array([self.row[m] for m in self.floors[:nc].tolist()])  # the rows C_fl(c)
        if keep:
            self.tn, self._family = tn, F

        def step(L, cnt):
            cl = self.cl[L]
            if cl:  # the floor rule: tn = max_{m >= fl} C_m / m = C_fl / fl
                tn[:cl, L, :cnt] = C[fr[:cl], L, :cnt] / self.floors[:cl, None]
                best = F[:cl, L, :cnt, 1:]
                self._take(tn, V, W, slice(0, cl), L, slice(0, cnt), out=best)
                np.maximum(best, F[:cl, L - 1, 1 : cnt + 1, 1:], out=best)  # or skip p[s]
            family = (F[0, L, :cnt, 1:] / self.fk).max(axis=1)
            np.maximum(self.sup[L, :cnt], family, out=values[L, :cnt])
        return step

    def _take(self, tn, V, W, c, L, s, out=None):
        """Candidates of the states (c, L, s) (slices c, s) with a first run of t
        points: its triple norm A[c, t-1, s] (k = 1), plus a rest of k - 1 sets
        from F for t <= nc, R[c, t-1, s, k-2], plus the rest as one merged run for
        nc < t < L, B[c, t-nc-1, s] (k = 2).  A walk takes their argmax; with
        `out` they are reduced over t into out[c, s, k-1]."""
        A = tn[c, 1 : L + 1, s]
        T = min(L, self.nc)
        R = A[:, :T, :, None] + V[c, L, :T, s, 1:-1]
        B = A[:, T : L - 1] + self.pow2[c, T + 1 : L, None] * W[L, 1 : L - T, s][::-1]
        if out is None:
            return A, R, B
        A.max(axis=1, out=out[..., 0])
        R.max(axis=1, out=out[..., 1:])
        np.maximum(out[..., 1], B.max(axis=1, initial=_NEG), out=out[..., 1])

    def _first(self, V, W, c: int, L: int, s: int, k: int) -> int:
        """The first run's length in the best k-run family of state (c, L, s), 0 if
        it leaves p[s] out, by the fill's tie rules: the first maximal t; a skip wins."""
        if c >= self.cl[L]:
            return L  # a merged tail
        A, R, B = self._take(self.tn, V, W, slice(c, c + 1), L, slice(s, s + 1))
        cand = A if k == 1 else np.concatenate([R[..., 0], B], 1) if k == 2 else R[..., k - 2]
        cand = cand[0, :, 0]
        return int(cand.argmax()) + 1 if cand.max() > self._family[c, L - 1, s + 1, k] else 0

    def root_best(self, m0: int) -> np.ndarray:
        """best[k] of the root's family search whose first set has scale >= m0:
        a first run p[a:e] valued C_m0 / m0, then the family states after it."""
        n, F = len(self.p), self._family
        if m0 == 2 or not n:
            return F[0, n, 0]
        a, e = np.triu_indices(n + 1, 1)  # every first run, t = e - a points
        t = e - a
        head = self.table(m0)[t, a] / m0 if m0.bit_length() <= _FLOOR_BITS_CAP else 0.0 * t
        r, b = t <= self.nc, (t > self.nc) & (e < n)  # rests in F, or one merged run
        rest = (head[r, None] + F[t[r], n - e[r], e[r], 1:-1]).max(axis=0)  # k >= 2
        merged = head[b] + self.pow2[0, t[b]] * self.l1[n - e[b], e[b]]
        rest[0] = max(rest[0], merged.max(initial=_NEG))
        return np.concatenate([[0.0, head.max()], rest])

    def sets(self, pos: Sequence[int]) -> list[tuple[Sequence[int], int]]:
        s, L = pos[0], len(pos)
        if self.N[L, s] <= self.sup[L, s]:
            return []
        k = int(np.argmax(self._family[0, L, s, 1:] / self.fk)) + 1
        V, W = self._views(self._family)
        out, a, c, e = [], s, 0, s + L
        for left in range(k, 0, -1):
            while not (t := self._first(V, W, c, e - a, a, left)):
                a += 1  # the family leaves p[a] out
            out.append((range(a, a + t), max(2, 1 << c)))  # the floor attains tn
            a, c = a + t, c + t
        return out

    def parts(self, pos: Sequence[int], m: int) -> list[Sequence[int]]:
        return [range(a, a + w) for a, w in self.runs(m, pos[0], len(pos))]


class FamilyEngine(Engine):
    """Evaluator for the family norm and its seminorms, on the last root's
    object only: a `_Pieces` on the engine's pattern memos, or a `_Segment`.
    Every memo entry is a function of its key alone and an operation holds its
    root object, so an instance shared across threads stays correct but may
    repeat a search."""

    def __init__(self, mode: SearchMode):
        self.mode = mode
        self._memos: tuple[dict, dict] = ({}, {})  # exhaustive: norms and partition sums

    def norm(self, x: FiniteVector, with_witness: bool = False):
        S = self._root(x.pattern())
        value = unscale(S.value(), S.exp)
        if not with_witness:
            return value
        return value, self._node(x, S, range(x.support_size))

    def triple_norm(self, x: FiniteVector, m: int) -> float:
        if m < 2:
            raise ValueError("the triple norm is defined for m >= 2")
        S = self._root(x.pattern())
        return unscale(_ratio(S.best(None, m), m), S.exp)

    def norm_ell(self, x: FiniteVector, ell: int) -> float:
        """Best family value at exactly `ell` pairs (trailing empty sets allowed)."""
        return self.norm_ell_m0(x, ell, 2)

    def norm_ell_m0(self, x: FiniteVector, ell: int, m0: int) -> float:
        """Like norm_ell but the first (nonempty) set's scale must be >= m0."""
        if ell < 1:
            raise ValueError("need ell >= 1")
        if m0 < 2:
            raise ValueError("need m0 >= 2")
        S = self._root(x.pattern())
        # best[0] = 0 is the empty family: the max is over at most ell sets
        return unscale(max(S.root_best(m0)[: ell + 1]) / f(ell), S.exp)

    def evaluate_family(self, x: FiniteVector, fam: AdmissibleFamily) -> float:
        """Value of one explicit family: a certified lower bound for the norm.
        Each set is valued by `triple_norm`, so it becomes the last root; the
        sum is taken in units of 2**scale_exp(x), as every other operation is."""
        fam.validate()
        e, total = scale_exp(x.pattern()), 0.0
        for m, E in fam.pairs:
            piece = x.restrict(E)
            if piece.support_size:
                total += math.ldexp(self.triple_norm(piece, m), -e)
        return unscale(total / f(fam.length), e)

    def _build(self, p: CoefficientPattern) -> _Pieces | _Segment:
        """A new root object of pattern p for this engine's mode, not filled."""
        if self.mode.kind == "segment":
            return _Segment(p)
        if len(p) > self.mode.max_support:
            raise SupportLimitError(f"support {len(p)} exceeds exhaustive limit "
                                    f"{self.mode.max_support}; use segment mode")
        return _Pieces(p, self._memos)

    def _node(self, x: FiniteVector, S: _Pieces | _Segment, pos: Sequence[int]) -> Witness:
        """Certificate for the norm of x on the support positions pos."""
        if not pos:
            return SupWitness(0.0, None)
        sets = S.sets(pos)
        if not sets:
            i = max(pos, key=lambda i: abs(x.coefficients[i]))
            return SupWitness(abs(x.coefficients[i]), x.indices[i])
        pairs, children = [], []
        for E, m in sets:
            pieces = tuple((IndexSet.of(x.indices[i] for i in P), self._node(x, S, P))
                           for P in S.parts(E, m))
            pairs.append((m, IndexSet.of(x.indices[i] for i in E)))
            value = unscale(_ratio(S.best(E, m), m), S.exp)
            children.append(PartitionWitness(value, m, float(m), pieces))
        return FamilyWitness(unscale(S.value(pos), S.exp), tuple(pairs), tuple(children))


_engine = lru_cache(maxsize=None)(FamilyEngine)  # one shared engine per mode


def get_engine(mode: SearchMode | None = None) -> FamilyEngine:
    return _engine(mode or Exhaustive())


def norm_x2(x: FiniteVector, mode: SearchMode | None = None, with_witness: bool = False):
    return get_engine(mode).norm(x, with_witness=with_witness)


def norm_ell(x: FiniteVector, ell: int, mode: SearchMode | None = None) -> float:
    return get_engine(mode).norm_ell(x, ell)
