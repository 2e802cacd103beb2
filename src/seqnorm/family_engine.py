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
closed under halving, in O(n^3 log n) additions and O(n^2 log n) memory: the
family states live in a window of lengths during the fill, and those of one
right end are derived again for a witness.  A merged-rest candidate (a first run of t >
nc points, then one merged run) B(t) = tn[c, t, s] + 2**-(c+t) l1(rest) is tn[c, t, s]
from t = t0 on, so the fill keeps a running max of tn there.  Proof: C_m >= sup in
floating point (pieces are, with N = max(sup, .) and in `levels` and `residual`, and
candidates sum nonnegatives), so tn[c, t, s] >= lo[c, s] = fl(sup[nc+1, s] / fl(c)) for
t > nc; a rest l1, in any order, is below 2 l1[n, 0] <= 2**eW; so from t0 = max(nc + 1,
eW - c - k + 2), 2**k = spacing(lo), the product rounds to at most spacing(lo) / 4 (a
bit spare for a subnormal one rounding up), under half the spacing of tn; c + k is least
at c = 0 (fl(0) = 2) and the least lo (`_Segment.t0`).  It gives a certified lower
bound, exact on constant patterns but not in general (frozen counterexample in
the tests).  ``exhaustive`` mode takes arbitrary subsets, up to
``max_support`` points (default `MAX_EXHAUSTIVE_SUPPORT`), on one `_Pieces` per
root: a family covers its points or leaves one out, and every search sums its
sets in one order, so values are bit-equal; every supremum is memoised by
coefficient pattern, sound because the norm is 1-unconditional and
1-subsymmetric (both under test): norms in one dict the engine shares across
roots, partition sums and family search states in the root's own, so only the
last root's are kept.  One walker over root positions, which both modes answer
with the sets, scales and pieces attaining each maximum, builds the witnesses.
Both modes scale a root by the power of two of `run_tables.scale_exp`, and
`FamilyEngine` is a `run_tables.Engine`, the frame it shares with ``x1``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, zip_longest
from typing import Sequence

import numpy as np

from .admissible import AdmissibleFamily
from .core import CoefficientPattern, FiniteVector, IndexSet, f, min_m_for_budget
from .run_tables import Engine, IterationCapError, RunTables, iterate, rests, scale_exp, unscale
from .witness import FamilyWitness, PartitionWitness, SupWitness, Witness

_NEG = float("-inf")
# Floors beyond this many bits overflow floats; the contribution is zero.
_FLOOR_BITS_CAP = 1020
# The default support limit of exhaustive mode: a cold 12 / 14-point norm takes about 0.2 / 1 s
# on a 2-vCPU Xeon (BENCH_16.json), but the limit decides which suite instances run
# exhaustively, and the frozen suite reports and benchmark references were taken at 12.
MAX_EXHAUSTIVE_SUPPORT = 12
# The most norms exhaustive mode keeps by pattern (about 13 MB); an insert past it clears them.
# After its warm-up, a seed-1 `suites-warm` benchmark run of 6,000 operations peaks at 30,842.
MAX_NORMS = 1 << 17


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


def _ratio(l1, fl: int):
    """l1 / fl, zero (of l1's shape) for a floor past `_FLOOR_BITS_CAP` bits."""
    return l1 / fl if fl.bit_length() <= _FLOOR_BITS_CAP else 0.0 * l1


class _Pieces:
    """Exhaustive mode's answers on one root p, by positions of q = p * 2**-exp
    (`scale_exp`): the sups of the fixed-point equation, memoised by pattern:
    norms in the engine's dict (`norms`, shared across roots), partition sums
    and family search states in this root's.  Helper pieces in `residual` and
    `levels` take given piece values as their norm memo.  A family's sets are
    the runs of the points U it covers, and the budget counts set points only:
    a family of p covers p (`cover`) or lies in p without a point (`family`).
    Each candidate is the float sum tn(E_1) + (tn(E_2) + ...) however a search
    reaches it, and max is exact, so values do not depend on the search order."""

    def __init__(self, p: CoefficientPattern, norms: dict):
        self.p, self.exp = p, scale_exp(p)
        self.q = tuple(math.ldexp(v, -self.exp) for v in p)
        self._norm = norms
        self._split: dict[tuple, tuple[float, int]] = {}  # `split`: (best, first-run width)
        self._family: dict[tuple, list | tuple[list, list]] = {}  # `family` and `cover` states

    def fill(self) -> None:
        """Nothing to fill ahead: the searches fill their memos as they are asked."""

    def norm_of(self, p: CoefficientPattern) -> float:
        if len(p) <= 2:
            # Closed form: the best family value (a+b)/2 is at most max(a, b).
            return max(p, default=0.0)
        hit = self._norm.get(p)
        if hit is None:
            hit = self.rhs(p)
            if len(self._norm) >= MAX_NORMS:
                self._norm.clear()
            self._norm[p] = hit
        return hit

    def rhs(self, p: CoefficientPattern) -> float:
        """Right-hand side of the fixed-point equation at p."""
        best = self.family(p, 2)
        return max(max(p), max(best[k] / f(k) for k in range(1, len(best))))

    def split(self, p: CoefficientPattern, m: int) -> tuple[float, int]:
        """Best sum of piece values over partitions of p into at most m runs,
        and the width of the first run of a partition attaining it."""
        n = len(p)
        if m >= n:
            return sum(p), 1
        if m == 1:
            return self.norm_of(p), n
        hit = self._split.get((p, m))
        if hit is None:
            hit = _NEG, 0
            for t in range(1, n):
                cand = self.norm_of(p[:t]) + self.split(p[t:], m - 1)[0]
                if cand > hit[0]:
                    hit = cand, t
            self._split[p, m] = hit
        return hit

    def cover(self, p: CoefficientPattern, c: int, first_floor: int) -> tuple[list, list]:
        """(best, arg) of the families covering p, c points consumed before it:
        best[k] is the largest sum of tn(set, floor) over k runs partitioning p,
        arg[k] the first run's length in one attaining it.  `first_floor` raises
        the first set's floor (the m0-constrained seminorm) and then turns the
        merged-tail leaf off for it, as later floors may drop back below it."""
        ff = first_floor if c == 0 else 2
        fl, r = max(ff, min_m_for_budget(c)), len(p)
        if r == 0:
            return [0.0], [0]
        if fl >= r and ff <= 2:
            return [_NEG, _ratio(sum(p), fl)], [0, r]
        hit = self._family.get((p, c, ff))
        if hit is None:
            best, arg = [_NEG], [0]
            for t in range(1, r + 1):
                tnv = _ratio(self.split(p[:t], fl)[0], fl)  # tn at scales >= fl: the floor rule
                for k, v in enumerate(self.cover(p[t:], c + t, ff)[0], 1):
                    if k == len(best):
                        best, arg = best + [_NEG], arg + [0]
                    if tnv + v > best[k]:
                        best[k], arg[k] = tnv + v, t
            hit = self._family[p, c, ff] = best, arg
        return hit

    def family(self, p: CoefficientPattern, first_floor: int) -> list:
        """best[k]: the largest sum of tn(set, floor) over families of exactly k
        sets in p: those covering p, and those of p without one point."""
        hit = self._family.get((p, first_floor))
        if hit is None:
            hit = self.cover(p, 0, first_floor)[0]
            for i in range(len(p)):
                rest = self.family(p[:i] + p[i + 1 :], first_floor)
                hit = [max(a, b) for a, b in zip_longest(hit, rest, fillvalue=_NEG)]
            self._family[p, first_floor] = hit
        return hit

    def _at(self, pos: Sequence[int] | None) -> CoefficientPattern:
        return self.q if pos is None else tuple(map(self.q.__getitem__, pos))

    def value(self, pos: Sequence[int] | None = None) -> float:
        return self.norm_of(self._at(pos))

    def best(self, pos: Sequence[int] | None, m: int) -> float:
        return self.split(self._at(pos), m)[0]

    def root_best(self, m0: int) -> list:
        return self.family(self.q, m0)

    def sets(self, pos: Sequence[int]) -> list[tuple[tuple[int, ...], int]]:
        """(positions, scale) of the sets of a family attaining the norm at pos, empty
        if the sup norm attains it.  Ties: drop the first point i whose p without i
        attains best[k] until the families covering p do; then walk cover's `arg`."""
        p, pos = self._at(pos), tuple(pos)
        if self.norm_of(p) <= max(p):
            return []
        best = self.family(p, 2)
        k = max(range(1, len(best)), key=lambda k: best[k] / f(k))
        want = best[k : k + 1]  # a slice, as a shorter list does not reach k sets
        while self.cover(p, 0, 2)[0][k : k + 1] != want:
            i = next(i for i in range(len(p))
                     if self.family(p[:i] + p[i + 1 :], 2)[k : k + 1] == want)
            p, pos = p[:i] + p[i + 1 :], pos[:i] + pos[i + 1 :]
        out, a, c = [], 0, 0
        for left in range(k, 0, -1):
            t = self.cover(p[a:], c, 2)[1][left]
            out.append((pos[a : a + t], min_m_for_budget(c)))
            a, c = a + t, c + t
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
        return unscale(abs(self.value() - _Pieces(self.p, self._norm).rhs(self.q)), self.exp)

    def levels(self) -> list[float]:
        """`RunTables.levels` on every restriction of the root, the sup norm of
        each as its first level."""
        q = self.q
        closure = list({z for k in range(1, len(q) + 1) for z in combinations(q, k)})

        def step(values):
            pieces = _Pieces(self.p, dict(zip(closure, values.tolist())))
            return np.array([pieces.rhs(z) for z in closure])
        return iterate(np.array([max(z) for z in closure]), step, closure.index(q), max(q),
                       10 * len(q), self.exp)


def _diagonal(a: np.ndarray, step: tuple[int, ...], shape: tuple[int, ...]) -> np.ndarray:
    """The view v[c, t-1, *i] = a[(c, *i) + t * step], t = 1, 2, ..., which numpy checks
    lies inside a: the state after a first run of t points, or that run's end."""
    st = sum(k * s for k, s in zip(step, a.strides))
    return np.ndarray(shape, a.dtype, a, st, (a.strides[0], st, *a.strides[1:]))


class _Segment(RunTables):
    """Segment mode: the run tables of one root with C_m for its floors and the
    triple norms `tn` = C_fl / fl of every run at the floors fl(c), c < nc.  The
    fill keeps the family states of `run_tables` of the last nc + 1 lengths only,
    and `ending` those of one right end.  Rows c >= nc of their arrays are merged
    tails [0, l1 / 2**c], so one `_diagonal` view holds the state after a first
    run of t <= nc points; after a longer one the rest is one merged run."""

    def __init__(self, p: CoefficientPattern):
        n = len(p)
        self.nc = max(2, (n - 1).bit_length())  # c = 0 .. floor(log2(n - 1)) are searched
        self.K = self.nc + 2  # at most nc + 1 sets
        self.floors = np.array([min_m_for_budget(c) for c in range(2 * self.nc)])
        super().__init__(p, self.floors[: self.nc].tolist())
        self.fk = np.array([f(k) for k in range(1, self.K)])
        v = np.ldexp(1.0, -np.arange(self.nc + n + 1))
        self.pow2 = np.ndarray((self.nc, n + 1), v.dtype, v, 0, v.strides * 2)  # 2**-(c+t)
        # the states searched at length L: c < cl[L], those with fl(c) < L
        self.cl = [0, 0, 0] + [min(self.nc, (L - 1).bit_length()) for L in range(3, n + 1)]
        lo = float(self.sup[min(self.nc + 1, n), : max(0, n - self.nc - 1)].min(initial=1.0)) / 2
        self.t0 = max(self.nc + 1, math.frexp(self.l1[n, 0])[1] + 4 - math.frexp(math.ulp(lo))[1])
        # the floor rule: tn = max_{m >= fl} C_m / m = C_fl / fl, which is l1 / fl once fl >= L;
        # the fill writes tn and the states of right end n in place, so a refill on the
        # root's own norms (`residual`) writes the same bits under readers of a kept root
        self.tn = self.l1 / self.floors[: self.nc, None, None]
        self.ends = np.full((2 * self.nc, self.K, n + self.nc + 1), _NEG)
        self._end = (-1, 0, None)  # the last `ending`: right end, first start, states

    def outer(self, C, values):
        nc, n, K, tn = self.nc, len(self.p), self.K, self.tn
        if n <= 2:  # nothing is searched: the family value is one merged run, l1 / 2 / f(1)
            return lambda L, cnt: np.maximum(self.sup[L, :cnt], self.l1[L, :cnt] / 2,
                                             out=values[L, :cnt])
        # the window G[c, j, k-1, s] holds the states (c, L, s) of consecutive lengths at
        # consecutive j, V[c, t-1, j] their rests (c+t, L-t, s+t).  When full it keeps its
        # last nc lengths, at its start, and the next lengths enter as merged tails.
        self.W = W = rests(self.l1)  # W[L, u, s] = l1[u, s+L-u], the last u points of p[s:s+L]
        l1, sup, cls, fl, fk = self.l1, self.sup, self.cl, self.floors[:, None], self.fk[:, None]
        t0, rm = self.t0, np.full((nc, n), _NEG)
        P, blk = 2 * nc + 2, [1, 1]  # length L at j = blk[0] + L - blk[1]
        G = np.full((2 * nc, P, K - 1, n + 1), _NEG)
        np.divide(l1[1:P], fl[:, None], out=G[:, 1 : min(P, n + 1), 0, :n])
        V = _diagonal(G, (1, -1, 0, 1), (nc, nc, *G.shape[1:]))
        best = tn[:, 1, None].repeat(K - 1, 1)  # best[c, k-1, s]: the states taking a first run
        ends = self.ends  # the states of right end n: `ending`
        ends[:, 0, : n + 1], ends[:, 1:, n - 1] = 0.0, G[:, 1, :, n - 1]
        self._end = (n, 0, ends)

        def step(L, cnt):
            cl, j, s = cls[L], blk[0] + L - blk[1], slice(0, cnt)
            if j == P:
                G[:, :nc, :, : cnt + nc] = G[:, P - nc :, :, : cnt + nc]
                m, blk[:], j = min(P - nc, cnt), (nc, L), nc
                np.divide(l1[L : L + m], fl[:, None], out=G[:, nc : nc + m, 0, :n])
            # row c of C is C_{2**c}, and fl(0) = fl(1) = 2; at L = 2, cl = 0: empty rows
            np.divide(C[1:cl, L, s], fl[1:cl], out=tn[1:cl, L, s])
            tn[0, L, s] = tn[1, L, s]
            np.maximum(best[:, 0, s], tn[:, L, s], out=best[:, 0, s])  # max_{t <= L} tn[c, t, s]
            # a first run p[s:s+t], then k - 1 sets: from G, or one merged run if t > nc
            b, T = best[:cl, :, s], min(L, nc)
            (tn[:cl, 1 : T + 1, None, s] + V[:cl, :T, j, :-1, s]).max(axis=1, out=b[:, 1:])
            t1 = min(L, t0)  # B(t) rounds to tn[c, t, s] from t0 on: their running max rm
            if t1 - 1 > T:
                B = self.pow2[:cl, T + 1 : t1, None] * W[L, L - t1 + 1 : L - T, s][::-1]
                B += tn[:cl, T + 1 : t1, s]
                np.maximum(b[:, 1], B.max(axis=1), out=b[:, 1])
            if L > t0:
                np.maximum(rm[:, s], tn[:, L - 1, s], out=rm[:, s])
                np.maximum(b[:, 1], rm[:cl, s], out=b[:, 1])
            np.maximum(b, G[:cl, j - 1, :, 1 : cnt + 1], out=G[:cl, j, :, s])  # or skip p[s]
            ends[:, 1:, n - L] = G[:, j, :, cnt - 1]
            np.maximum(sup[L, s], (G[0, j, :, s] / fk).max(axis=0), out=values[L, s])
        return step

    def _after(self, S: np.ndarray) -> np.ndarray:
        """D[c, t-1, k, s] = S[c+t, k, s+t]: the states after a first run p[s:s+t]."""
        return _diagonal(S, (1, 0, 1), (self.nc, self.nc, self.K, S.shape[2] - self.nc))

    def ending(self, e: int, Lm: int) -> np.ndarray:
        """S[c, k, s]: the family state (c, e - s, s) for e - Lm <= s <= e (-inf past e).
        One pass per row, c descending, as row c reads rows > c only, then a running
        maximum over the lengths for the skip.  The last one is kept, a function of the
        filled tables alone: threads may share it."""
        hit = self._end
        if hit[0] == e and hit[1] <= e - Lm:
            return hit[2]
        nc, tn, s0, rest = self.nc, self.tn, e - Lm, rests(self.l1)[Lm, Lm:0:-1, e - Lm]
        S = np.full((2 * nc, self.K, e + nc + 1), _NEG)
        S[:, 0, : e + 1] = 0.0
        np.divide(rest, self.floors[:, None], out=S[:, 1, s0:e])  # merged tails, l1 of p[s:e]
        # a first run of t > nc points: k = 1 if s + t <= e, and k = 2 if s + t < e with
        # the rest one merged run; H[., t-1, s] = h[., s+t]
        h = np.zeros((3, e + Lm + 1))
        h[0, e + 1 :], h[1, e:], h[2, s0:e] = _NEG, _NEG, rest
        D, H = self._after(S), _diagonal(h, (0, 1), (3, Lm, e + 1))
        for c in range(self.cl[Lm] - 1, -1, -1):
            s, t = slice(s0, e - int(self.floors[c])), slice(nc + 1, Lm + 1)  # lengths > fl(c)
            (tn[c, 1 : nc + 1, None, s] + D[c, :, :-1, s]).max(axis=0, out=S[c, 1:, s])
            B = tn[c, t, s] + H[:2, nc:, s]
            B[1] += self.pow2[c, t, None] * H[2, nc:, s]
            np.maximum(S[c, 1:3, s], B.max(axis=1, initial=_NEG), out=S[c, 1:3, s])
            skip = S[c, 1:, s0 : s.stop + 1][:, ::-1]  # by increasing length
            np.maximum.accumulate(skip, axis=1, out=skip)
        self._end = (e, s0, S)
        return S

    def _first(self, S, D, e: int, c: int, a: int, k: int) -> int:
        """The first run's length in the best k-run family of state (c, e - a, a), 0 if it
        leaves p[a] out, by the fill's tie rules: the first maximal t; a skip wins."""
        L = e - a
        if c >= self.cl[L]:
            return L  # a merged tail
        T = min(L, self.nc)
        cand = self.tn[c, 1 : L + 1, a]
        if k > 1:
            cand = cand[:T] + D[c, :T, k - 1, a]
        if k == 2 and L - 1 > T:  # the fill's merged-rest candidates B of this state
            rest = self.pow2[c, T + 1 : L] * self.W[L, L - T - 1 : 0 : -1, a]
            cand = np.concatenate([cand, rest + self.tn[c, T + 1 : L, a]])
        t = int(cand.argmax())
        return t + 1 if cand[t] > S[c, k, a + 1] else 0

    def root_best(self, m0: int) -> np.ndarray:
        """best[k] of the root's family search whose first set has scale >= m0:
        a first run p[a:e] valued C_m0 / m0, then the family states after it."""
        n, nc = len(self.p), self.nc
        S = self.ending(n, n)
        if m0 == 2 or not n:
            return S[0, :, 0]
        a, e = np.triu_indices(n + 1, 1)  # every first run, of t = e - a points
        t = e - a
        head = _ratio(self.table(m0)[t, a], m0)
        r, b = t <= nc, (t > nc) & (e < n)  # rests in S, or one merged run
        rest = (head[r, None] + S[t[r], 1:-1, e[r]]).max(axis=0)  # k >= 2
        merged = head[b] + self.pow2[0, t[b]] * self.l1[n - e[b], e[b]]
        rest[0] = max(rest[0], merged.max(initial=_NEG))
        return np.concatenate([[0.0, head.max()], rest])

    def sets(self, pos: Sequence[int]) -> list[tuple[Sequence[int], int]]:
        s, L = pos[0], len(pos)
        if self.N[L, s] <= self.sup[L, s]:
            return []
        e = s + L
        S = self.ending(e, L)
        D = self._after(S)
        k = int(np.argmax(S[0, 1:, s] / self.fk)) + 1
        out, a, c = [], s, 0
        for left in range(k, 0, -1):
            while not (t := self._first(S, D, e, c, a, left)):
                a += 1  # the family leaves p[a] out
            out.append((range(a, a + t), min_m_for_budget(c)))  # the floor attains tn
            a, c = a + t, c + t
        return out

    def parts(self, pos: Sequence[int], m: int) -> list[Sequence[int]]:
        return [range(a, a + w) for a, w in self.runs(m, pos[0], len(pos))]


class FamilyEngine(Engine):
    """Evaluator for the family norm and its seminorms, on the last root's
    object only: a `_Pieces` on the engine's norm memo, or a `_Segment`.
    Every memo entry is a function of its key alone and an operation holds its
    root object, so an instance shared across threads stays correct but may
    repeat a search."""

    def __init__(self, mode: SearchMode):
        self.mode = mode
        self._norms: dict = {}  # exhaustive: norms by pattern, shared across roots

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
        return _Pieces(p, self._norms)

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
            pieces = tuple((IndexSet(tuple(x.indices[i] for i in P)), self._node(x, S, P))
                           for P in S.parts(E, m))
            pairs.append((m, IndexSet(tuple(x.indices[i] for i in E))))
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
