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
from t = t0 on, so the fill takes the running max of tn over t < L in its place, as every
first-run candidate for t < t0 is at least tn[c, t, s].  Proof: C_m >= sup in
floating point (pieces are, with N = max(sup, .) and on given piece values, and
candidates sum nonnegatives), so tn[c, t, s] >= lo[c, s] = fl(sup[nc+1, s] / fl(c)) for
t > nc; a rest l1, in any order, is below 2 l1[n, 0] <= 2**eW; so from t0 = max(nc + 1,
eW - c - k + 2), 2**k = spacing(lo), the product rounds to at most spacing(lo) / 4 (a
bit spare for a subnormal one rounding up), under half the spacing of tn; c + k is least
at c = 0 (fl(0) = 2) and the least lo (`_Segment.t0`).  It gives a certified lower
bound, exact on constant patterns but not in general (frozen counterexample in
the tests).  ``exhaustive`` mode takes arbitrary subsets, up to ``max_support``
points (default `MAX_EXHAUSTIVE_SUPPORT`), on one `_Pieces` per root: a family
covers its points or leaves one out, and every search sums its sets in one order,
so values are bit-equal.  A sub-pattern is one integer, its counts of points kept
per maximal run of equal coefficients in mixed radix (a bitmask if no neighbours
are equal), so first points, rests and drops are integer arithmetic.  Every
supremum is a function of the pattern (the norm is 1-unconditional and
1-subsymmetric, both under test): norms are memoised by pattern in one dict the
engine shares across roots and reads before it builds a root, and by index, with
partition sums and family search states, in the root's own, so only the last
root's are kept.

A root of at least `WAVE_MIN_INDICES` sub-patterns whose tables fit `WAVE_BYTES`
(`_waves_fit`, counted from its run lengths before any allocation) is filled instead
in waves of equal point count r = 0 .. n (`_Waves`), each one batch of numpy gathers
over the indices of r points.  With P_t the first t points of I and S_t = I - P_t:
the partition sums SP[m, I] = max_t NV[P_t] + SP[m-1, S_t] for 1 < m < r (SP = l1
once m >= r, and the norm NV at m = 1); the cover states at each floor row c with
fl(c) < r, COV[c, I, k] = max_t of tn = SP[fl(c), P_t] / fl(c) alone (t = r, k = 1),
plus l1(S_t) / fl(c+t) (a merged rest, k = 2), or plus COV[c+t, S_t, k-1]; then
FAM[I] = max(COV[0, I], FAM[I - w] over the points of I) and NV.  Each candidate is
the float sum the search forms, its terms added and divided in the search's order,
and max is exact, so every table holds the search's bits; a witness takes each
state's first maximal t from the same candidates, as the search's strict `>` does,
so witnesses are equal too.  The set count stays below KA = (n-1).bit_length() + 2:
after its first set a family's searched states have increasing c >= 1 with 2**c =
fl(c) < (points left) <= n - c <= n - 1, so at most floor(log2(n - 2)) of them, and
with the first set and a last one (whole or merged) it has at most that + 2 <=
(n-1).bit_length() + 1 sets.  Only the first fill writes the tables, and only the
root's own norm enters the engine's memo (a 17-point root has 131,072 sub-patterns,
the memo `MAX_NORMS`); a raised first floor m0 is one more pass at c = 0 over every
index, as the root's family states are the best over all its sub-patterns.  A
smaller root keeps the search, cheaper there and sharing its sub-pattern norms
through the memo; a larger one too, so no table of 2**n rows is allocated.

An engine of either mode also keeps its last `MAX_ANSWERS`
seminorm answers (`triple_norm`'s C_m sum, `norm_ell_m0`'s root row) by scaled
pattern and question, least recently used out.  One walker over root positions,
which both modes answer with the sets, scales and pieces attaining each maximum,
builds the witnesses.  Both modes scale a root by `run_tables.scale_exp`, and
`FamilyEngine` is a `run_tables.Engine`, the frame it shares with ``x1``.
"""
from __future__ import annotations

import copy
import math
from collections import OrderedDict
from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from typing import Sequence

import numpy as np

from .admissible import AdmissibleFamily
from .core import CoefficientPattern, FiniteVector, IndexSet, f, min_m_for_budget
from .run_tables import (
    MAX_ENGINES, Engine, RunTables, rests, scale_exp, unscale,
)
from .witness import FamilyWitness, PartitionWitness, SupWitness, Witness

_NEG = float("-inf")
# Floors beyond this many bits overflow floats; the contribution is zero.
_FLOOR_BITS_CAP = 1020
# The default support limit of exhaustive mode: a cold U(0.1, 3) 12 / 14-point norm takes about
# 0.006-0.009 / 0.02 s on a 2-vCPU Xeon (BENCH_33.json; 0.13-0.22 / 0.7 s on the search), but
# the limit decides which suite instances run exhaustively, and the frozen suite reports and
# benchmark references were taken at 12.
MAX_EXHAUSTIVE_SUPPORT = 12
# The most norms exhaustive mode keeps by pattern (about 13 MB); an insert past it clears them.
# After its warm-up, a seed-1 `suites-warm` benchmark run of 6,000 operations peaks at 30,842.
MAX_NORMS = 1 << 17
# A root of at least this many sub-patterns takes the wave fill (`_Waves`), a smaller one the
# search (`_Pieces`).  Cold (2-vCPU Xeon, fresh engine per root) the waves win from about 64 on
# generic roots (6 points: 0.57 against 0.92 ms; 10 points, 1,024: 1.8 against 24 ms) and near
# 100 on run roots ((6, 6), 49: 1.8 against 1.0 ms; (4, 4, 4), 125: 1.8 against 2.6 ms).  The
# suites' roots, at most about 125, run as fast either way (seed-1 instances 600-2,399 with the
# limit at 64 or 1,024); the limit is the power of two past a 9-point root's 512, so roots of
# 9 points and fewer, those the search's own tests read, stay on the search.
WAVE_MIN_INDICES = 1024
# The most bytes a wave root's tables may take as `_waves_fit` counts them; a larger root takes
# the search.  Generic 19 points count 392 MiB and peaked 390 MiB above the interpreter's RSS,
# in 1.4 s; 20 points count 808 MiB (802 MiB, 2.6 s), so from 20 points no 2**n-row table is
# allocated.  The search needs more at those sizes: 19 points took 35 s and 756 MiB.
WAVE_BYTES = 512 << 20
# The most seminorm answers an engine keeps, least recently used out.  On seed-1 `suites-warm`
# instances 600-2,399, run once after the warm-up, 256 answers 1,603 of 3,298 calls, and no
# bound more than 1,775; each key holds its scaled pattern, n floats for an n-point root.
MAX_ANSWERS = 256


def _wave_shape(n: int) -> tuple[int, int]:
    """(KA, rows) of an n-point wave root: the set counts k < KA a family reaches (module
    docstring), and the floor rows c < rows: 0, and those with fl(c) < n - c."""
    rows = 1
    while min_m_for_budget(rows) < n - rows:
        rows += 1
    return max(3, (n - 1).bit_length() + 2), rows


def _waves_fit(p: CoefficientPattern) -> bool:
    """Whether the exhaustive root of p takes the wave fill: at least `WAVE_MIN_INDICES`
    sub-patterns and at most `WAVE_BYTES` of tables, as counted from the lengths of its
    maximal runs before anything is allocated."""
    if 1 << len(p) < WAVE_MIN_INDICES:  # at most 2**n sub-patterns
        return False
    size, n = math.prod(len(list(run)) + 1 for _, run in groupby(_scaled(p)[0])), len(p)
    ka, rows = _wave_shape(n)
    # by index: NV, l1, sup, count and order, SP and P (n + 1 and n rows), COV and FAM
    # (rows + 1 rows of KA), and the wave's temporaries, at most about n more
    return WAVE_MIN_INDICES <= size and 8 * size * (3 * n + 6 + (rows + 1) * ka) <= WAVE_BYTES


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


def _scaled(p: CoefficientPattern) -> tuple[CoefficientPattern, int]:
    """(q, e): p * 2**-e, exactly as both modes scale a root, and e = `scale_exp(p)`."""
    e = scale_exp(p)
    return tuple(math.ldexp(v, -e) for v in p), e


def _div(fl: int) -> float:
    """The floor fl as a divisor: inf past `_FLOOR_BITS_CAP` bits, so l1 / fl is zero."""
    return float(fl) if fl.bit_length() <= _FLOOR_BITS_CAP else math.inf


class _Pieces:
    """Exhaustive mode's answers on one root p, by positions of q = p * 2**-exp
    (`scale_exp`), on the sub-patterns of q: index I = sum d_i w_i keeps d_i points
    of q's i-th maximal run of equal coefficients, w_i the product of (length + 1)
    over the runs before it, so the root `key` is size - 1.  `norms` is the engine's
    norm memo by pattern; `fill(piece)` reads given piece values by index instead.
    A family covers I (`cover`) or lies in I without a point (`family`); its sets are the
    runs of the points it covers, and its budget counts those points.  Each
    candidate is the float sum tn(E_1) + (tn(E_2) + ...) however a search reaches
    it, and max is exact, so values do not depend on the search order."""

    def __init__(self, p: CoefficientPattern, norms: dict):
        self.p, self._norm = p, norms
        self.q, self.exp = _scaled(p)
        self._runs, self.size = [], 1  # (value, weight, length + 1) of each maximal run of q
        for v, run in groupby(self.q):
            m = len(list(run)) + 1
            self._runs.append((v, self.size, m))
            self.size *= m
        self.K, self.key = len(p) + 1, self.size - 1
        self._w = [w for _, w, m in self._runs for _ in range(1, m)]  # by position
        self._div = [_div(min_m_for_budget(c)) for c in range(self.K)]  # the floor after c points
        self._start()

    def _start(self) -> None:
        """The search's tables: by index, sum(pattern) and len, and empty memos."""
        self._l1, self._r = [0], [0]
        for v, _, m in self._runs:
            a, b = self._l1, self._r
            for _ in range(1, m):  # the indices with one more point of the run, v added last
                a, b = [s + v for s in a], [k + 1 for k in b]
                self._l1, self._r = self._l1 + a, self._r + b
        self._nv: list = [None] * self.size  # norms by index
        self._split: dict[int, tuple[float, int]] = {}  # J * K + m: (best, first-run width)
        self._cover: dict[int, tuple[list, list]] = {}  # I * K + c: `cover` at the floor rule
        self._family: dict[int, dict[int, list]] = {}  # first floor: {I: `family`}

    def fill(self, piece: np.ndarray | None = None) -> np.ndarray | None:
        """Nothing to fill ahead: the searches fill their memos as they are asked.  With
        `piece`, values by index, the map at every index, on a copy with empty memos."""
        if piece is not None:
            F = copy.copy(self)
            F._nv, F._split, F._cover, F._family = piece.tolist(), {}, {}, {}
            return np.array([0.0, *(F.rhs(I, F.pattern(I)) for I in range(1, self.size))])

    @property
    def sup(self) -> np.ndarray:
        return np.array([max(self.pattern(I), default=0.0) for I in range(self.size)])

    def remap(self, fresh: _Pieces) -> float:
        """`RunTables.remap`: fresh reads these norms by index, then the engine's memo."""
        fresh._nv = self._nv.copy()
        return fresh.rhs(self.key, self.q)

    def pattern(self, I: int) -> CoefficientPattern:
        return tuple(v for v, w, m in self._runs for _ in range(I // w % m))

    def index(self, pos: Sequence[int] | None) -> int:
        return self.key if pos is None else sum(map(self._w.__getitem__, pos))

    def norm_of(self, I: int) -> float:
        v = self._nv[I]
        if v is None:
            p = self.pattern(I)
            # closed form below 3 points: the best family value (a+b)/2 is at most max(a, b)
            v = max(p, default=0.0) if len(p) <= 2 else self._norm.get(p)
            if v is None:
                v = self.rhs(I, p)
                if len(self._norm) >= MAX_NORMS:
                    self._norm.clear()
                self._norm[p] = v
            self._nv[I] = v
        return v

    def rhs(self, I: int, p: CoefficientPattern) -> float:
        """Right-hand side of the fixed-point equation at sub-pattern I, of pattern p."""
        best = self.family(I, 2)
        return max(max(p), max(best[k] / f(k) for k in range(1, len(best))))

    def split(self, J: int, m: int) -> tuple[float, int]:
        """Best sum of piece values over partitions of J into at most m runs,
        and the width of the first run of a partition attaining it."""
        r, l1 = self._r[J], self._l1
        if m >= r:
            return l1[J], 1
        if m == 1:
            return self.norm_of(J), r
        hit = self._split.get(J * self.K + m)  # 1 < m < r <= K - 1: one key per state
        if hit is None:
            hit, P, t, nv, memo, K = (_NEG, 0), 0, 0, self._nv, self._split, self.K
            for _, w, mw in self._runs:
                for _ in range(J // w % mw):
                    P, t = P + w, t + 1
                    if t < r:  # the rest: one piece per point, one piece, or split
                        S = J - P
                        rest = (l1[S] if m > r - t else self.norm_of(S) if m == 2
                                else (memo.get(S * K + m - 1) or self.split(S, m - 1))[0])
                        cand = (nv[P] if nv[P] is not None else self.norm_of(P)) + rest
                        if cand > hit[0]:
                            hit = cand, t
            self._split[J * self.K + m] = hit
        return hit

    def cover(self, I: int, c: int, first_floor: int) -> tuple[list, list]:
        """(best, arg) of the families covering I, c points consumed before it:
        best[k] is the largest sum of tn(set, floor) over k runs partitioning I,
        arg[k] the first run's length in one attaining it.  `first_floor` raises
        the first set's floor (the m0-constrained seminorm; such a state is asked
        once, by its `family` state, so not kept) and turns its merged-tail leaf
        off, as later floors may drop back below it."""
        ff = first_floor if c == 0 else 2
        if ff == 2 and (hit := self._cover.get(I * self.K + c)) is not None:
            return hit
        r, l1, div, fl = self._r[I], self._l1, self._div, max(ff, min_m_for_budget(c))
        if r == 0:
            return [0.0], [0]
        if fl >= r and ff <= 2:
            return [_NEG, l1[I] / _div(fl)], [0, r]
        k2, P, t, dv, K = min(3, r + 1), 0, 0, _div(fl), self.K  # k <= 2 sets: alone, or a rest
        best, arg = [_NEG] * k2, [0] * k2
        for _, w, m in self._runs:
            for _ in range(I // w % m):
                P, t = P + w, t + 1
                tnv = (l1[P] if fl >= t else (self._split.get(P * K + fl) or self.split(P, fl))[0])
                tnv /= dv  # tn at scales >= fl, the floor rule
                S, c2 = I - P, c + t  # the rest: empty, one merged tail, or searched
                if t == r or div[c2] >= r - t:  # one set, or two with a merged tail
                    k, v = (1, tnv) if t == r else (2, tnv + l1[S] / div[c2])
                    if v > best[k]:
                        best[k], arg[k] = v, t
                else:
                    tail = (self._cover.get(S * K + c2) or self.cover(S, c2, 2))[0]  # [0] = -inf
                    best += [_NEG] * (len(tail) + 1 - len(best))
                    arg += [0] * (len(best) - len(arg))
                    for k in range(1, len(tail)):
                        if tnv + tail[k] > best[k + 1]:
                            best[k + 1], arg[k + 1] = tnv + tail[k], t
        if ff == 2:
            self._cover[I * self.K + c] = best, arg
        return best, arg

    def family(self, I: int, first_floor: int) -> list:
        """best[k]: the largest sum of tn(set, floor) over families of exactly k
        sets in I: those covering I, and those of I without one point."""
        memo = self._family.setdefault(first_floor, {})
        hit = memo.get(I)
        if hit is None:
            hit = self.cover(I, 0, first_floor)[0]
            for _, w, m in self._runs:
                if I // w % m:  # without one point of this run
                    rest = memo.get(I - w) or self.family(I - w, first_floor)
                    hit = [*map(max, hit, rest), *(hit[len(rest) :] or rest[len(hit) :])]
            memo[I] = hit
        return hit

    def value(self, pos: Sequence[int] | None = None) -> float:
        return self.norm_of(self.index(pos))

    def best(self, pos: Sequence[int] | None, m: int) -> float:
        return self.split(self.index(pos), m)[0]

    def root_best(self, m0: int) -> list:
        return self.family(self.key, m0)

    def sets(self, pos: Sequence[int]) -> list[tuple[tuple[int, ...], int]]:
        """(positions, scale) of the sets of a family attaining the norm at pos, empty
        if the sup norm attains it.  Ties: drop the first point i whose p without i
        attains best[k] until the families covering p do; then walk cover's `arg`."""
        pos, I = tuple(pos), self.index(pos)
        if self.norm_of(I) <= max(map(self.q.__getitem__, pos)):
            return []
        best = self.family(I, 2)
        k = max(range(1, len(best)), key=lambda k: best[k] / f(k))
        want = best[k : k + 1]  # a slice, as a shorter list does not reach k sets
        while self.cover(I, 0, 2)[0][k : k + 1] != want:
            i = next(i for i, j in enumerate(pos)
                     if self.family(I - self._w[j], 2)[k : k + 1] == want)
            I, pos = I - self._w[pos[i]], pos[:i] + pos[i + 1 :]
        out, a, c = [], 0, 0
        for left in range(k, 0, -1):
            t = self.cover(self.index(pos[a:]), c, 2)[1][left]
            out.append((pos[a : a + t], min_m_for_budget(c)))
            a, c = a + t, c + t
        return out

    def parts(self, pos: Sequence[int], m: int) -> list[Sequence[int]]:
        """The pieces of a partition of pos into at most m runs attaining `best`."""
        out, a = [], 0
        while a < len(pos):
            t = self.split(self.index(pos[a:]), m - len(out))[1]
            out.append(pos[a : a + t])
            a += t
        return out


class _Waves(_Pieces):
    """`_Pieces` on tables its first fill writes in waves of equal point count (module
    docstring): by index, norms `NV`, partition sums `SP[m, I]` (l1 once m >= |I|), family
    states `FAM[I, k]`, and cover states `COV[c, I, k]` for the floor rows c; k < `KA`.
    Every query reads them; a witness re-derives the first maximal argument of each
    state it visits from the same candidates."""

    def _start(self) -> None:
        self._ix, (self.KA, self.rows) = None, _wave_shape(self.K - 1)

    def _index(self) -> tuple:
        """(l1, sup, cnt, P, waves): sum, max and count of the points of each index; P[t-1, I]
        the index of its first t points; waves[r] the indices of r points."""
        if self._ix is None:
            size = self.size
            l1, sup, cnt = np.zeros(size), np.zeros(size), np.zeros(size, np.intp)
            P = np.zeros((max(1, self.K - 1), size), np.intp)
            for v, w, m in self._runs:
                for d in range(1, m):  # the indices with one more point of the run, v added last
                    a, b = slice(w * (d - 1), w * d), slice(w * d, w * (d + 1))
                    l1[b], sup[b], cnt[b], P[:, b] = l1[a] + v, np.maximum(sup[a], v), cnt[a] + 1, P[:, a]
                    J = np.arange(w * d, w * (d + 1))
                    P[cnt[J] - 1, J] = J
            cut = np.cumsum(np.bincount(cnt, minlength=self.K))[:-1]
            self._ix = l1, sup, cnt, P, np.split(np.argsort(cnt, kind="stable"), cut)
        return self._ix

    def _wave(self, r: int) -> tuple:
        """(I, P, S): the indices of r points, and by t = 1..r (rows) their first t points
        and the rest."""
        I = self._index()[4][r]
        P = self._ix[3][:r, I]
        return I, P, I - P

    def _cands(self, SP, COV, P, S, c: int, fl: int):
        """(t, k, cand) by t = 1..r: cand[b, j] is the best sum of `_Pieces.cover` over the
        families of k + j sets covering index b of the batch whose first set is its first
        t points, at floor fl, c points consumed before it; in `_Pieces.cover`'s order."""
        r, div = len(S), self._div
        tnv = SP[min(fl, self.K - 1)][P] / _div(fl)
        for t in range(1, r):
            if div[c + t] < r - t:  # the rest's searched state
                yield t, 2, tnv[t - 1, :, None] + np.take(COV[c + t], S[t - 1], axis=0)[:, 1:-1]
            else:  # one merged set
                yield t, 2, (tnv[t - 1] + self._ix[0][S[t - 1]] / div[c + t])[:, None]
        yield r, 1, tnv[r - 1, :, None]

    def _covering(self, SP, COV, P, S, c: int, fl: int) -> np.ndarray:
        """best[b, k] of `_Pieces.cover` for each index of the batch."""
        best = np.full((S.shape[1], self.KA), _NEG)
        for _, k, cand in self._cands(SP, COV, P, S, c, fl):
            np.maximum(best[:, k : k + cand.shape[1]], cand, out=best[:, k : k + cand.shape[1]])
        return best

    def _waves(self, piece: np.ndarray | None = None) -> tuple:
        """(values, SP, COV, FAM): the norms, or with `piece` the map at every index on
        those piece values, and the tables, filled by increasing point count."""
        l1, sup, cnt, _, waves = self._index()
        n, size, KA = self.K - 1, self.size, self.KA
        NV = np.zeros(size) if piece is None else piece
        out = NV if piece is None else np.zeros(size)
        SP = l1[None].repeat(n + 1, axis=0)
        COV, FAM = np.full((self.rows, size, KA), _NEG), np.full((size, KA), _NEG)
        COV[0, 0, 0] = FAM[0, 0] = 0.0  # the empty family
        fk = np.array([f(k) for k in range(1, KA)])
        for r in range(1, n + 1):
            I, P, S = self._wave(r)
            if r >= 3:  # C_m for 1 < m < r: a first piece of t points, then m - 1 pieces
                best, nv = np.full((r - 2, len(I)), _NEG), NV[P]
                for t in range(1, r):
                    np.maximum(best, np.take(SP[1 : r - 1], S[t - 1], axis=1) + nv[t - 1], out=best)
                SP[2:r, I] = best
            for c in range(min(self.rows, n - r + 1)):
                fl = min_m_for_budget(c)
                if fl < r:
                    COV[c, I] = self._covering(SP, COV, P, S, c, fl)
                elif c == 0:  # one merged set
                    COV[0, I, 1] = l1[I] / 2.0
            fam = COV[0, I]
            for drop in I - np.diff(P, axis=0, prepend=0):  # I without one of its points
                np.maximum(fam, np.take(FAM, drop, axis=0), out=fam)
            FAM[I] = fam
            value = np.maximum(sup[I], (fam[:, 1:] / fk).max(axis=1))
            if piece is not None:
                out[I] = value
            else:  # closed form below 3 points, as `norm_of`
                NV[I] = value if r >= 3 else sup[I]
            if r >= 2:
                SP[1, I] = NV[I]
        return out, SP, COV, FAM

    def fill(self, piece: np.ndarray | None = None) -> np.ndarray | None:
        """All tables, and the root's norm into the engine's memo; with `piece`, the map at
        every index, on new tables."""
        if piece is not None:
            return self._waves(piece)[0]
        self.NV, self.SP, self.COV, self.FAM = self._waves()
        if self.K > 3 and self.q not in self._norm:
            if len(self._norm) >= MAX_NORMS:
                self._norm.clear()
            self._norm[self.q] = float(self.NV[self.key])

    @property
    def sup(self) -> np.ndarray:
        return self._index()[1].copy()

    def remap(self, fresh: _Pieces) -> float:
        return float(fresh.fill(piece=self.NV)[self.key])

    def norm_of(self, I: int) -> float:
        return float(self.NV[I])

    def split(self, J: int, m: int) -> tuple[float, int]:
        l1, _, cnt, P, _ = self._ix
        r = int(cnt[J])
        if m >= r:
            return float(l1[J]), 1
        if m == 1:
            return float(self.NV[J]), r
        Pt = P[: r - 1, J]
        return float(self.SP[m, J]), int((self.NV[Pt] + self.SP[m - 1, J - Pt]).argmax()) + 1

    def cover(self, I: int, c: int, first_floor: int) -> tuple[list, list]:
        ff = first_floor if c == 0 else 2
        r, fl = int(self._ix[2][I]), max(ff, min_m_for_budget(c))
        if r == 0:
            return [0.0], [0]
        if fl >= r and ff <= 2:
            return [_NEG, float(self._ix[0][I]) / _div(fl)], [0, r]
        P = self._ix[3][:r, I : I + 1]
        cand = np.full((r, self.KA), _NEG)  # by first-set size t and set count k
        for t, k, v in self._cands(self.SP, self.COV, P, I - P, c, fl):
            cand[t - 1, k : k + v.shape[1]] = v[0]
        return cand.max(axis=0).tolist(), (cand.argmax(axis=0) + 1).tolist()

    def family(self, I: int, first_floor: int) -> list:
        if first_floor != 2:
            raise ValueError("a wave root answers a raised first floor at its root: `root_best`")
        return self.FAM[I].tolist()

    def root_best(self, m0: int) -> list:
        """best[k]: the best over every index of its covering families, the first set's
        floor raised to m0 and no merged-tail leaf (`_Pieces.cover`): one more pass."""
        if m0 == 2:
            return self.FAM[self.key].tolist()
        best = self.FAM[0].copy()
        for r in range(1, self.K):
            I, P, S = self._wave(r)
            np.maximum(best, self._covering(self.SP, self.COV, P, S, 0, m0).max(axis=0), out=best)
        return best.tolist()


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
        # the floor rule: tn = max_{m >= fl} C_m / m = C_fl / fl, which is l1 / fl once fl >= L
        self.tn = self.l1 / self.floors[: self.nc, None, None]
        self.ends = np.full((2 * self.nc, self.K, n + self.nc + 1), _NEG)
        self._end = (-1, 0, None)  # the last `ending`: right end, first start, states

    def outer(self, C, values):
        nc, n, K, tn, t0 = self.nc, len(self.p), self.K, self.tn, self.t0
        if n <= 2:  # nothing is searched: the family value is one merged run, l1 / 2 / f(1)
            return lambda L, cnt: np.maximum(self.sup[L, :cnt], self.l1[L, :cnt] / 2,
                                             out=values[L, :cnt])
        # the window G[c, j, k-1, s] holds the states (c, L, s) of consecutive lengths at
        # consecutive j, V[c, t-1, j] their rests (c+t, L-t, s+t).  When full it keeps its
        # last nc lengths, at its start, and the next lengths enter as merged tails.
        self.W = W = rests(self.l1)  # W[L, u, s] = l1[u, s+L-u], the last u points of p[s:s+L]
        l1, sup, cls, fl, fk = self.l1, self.sup, self.cl, self.floors[:, None], self.fk[:, None]
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
            # a first run p[s:s+t], then k - 1 sets: from G, or one merged run if t > nc
            b, T = best[:cl, :, s], min(L, nc)
            (tn[:cl, 1 : T + 1, None, s] + V[:cl, :T, j, :-1, s]).max(axis=1, out=b[:, 1:])
            t1 = min(L, t0)  # B(t) rounds to tn[c, t, s] from t0 on
            if t1 - 1 > T:
                B = self.pow2[:cl, T + 1 : t1, None] * W[L, L - t1 + 1 : L - T, s][::-1]
                B += tn[:cl, T + 1 : t1, s]
                np.maximum(b[:, 1], B.max(axis=1), out=b[:, 1])
            if L > t0:  # b[:, 1] is at least tn[c, t, s] for t < t0: take max_{t < L} tn
                np.maximum(b[:, 1], b[:, 0], out=b[:, 1])
            np.maximum(best[:, 0, s], tn[:, L, s], out=best[:, 0, s])  # max_{t <= L} tn[c, t, s]
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
        head = self.table(m0)[t, a] / _div(m0)
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
    """Evaluator for the family norm and its seminorms.  It keeps one root
    object, the last: a `_Pieces` on the engine's norm memo, or a
    `_Segment`.  Beyond it the engine keeps the exhaustive norm memo (at most
    `MAX_NORMS` entries) and the answers of `triple_norm` and `norm_ell_m0`
    (at most `MAX_ANSWERS`, least recently used out, each a float or a short
    tuple: no root's tables).  Every kept entry is a function of its key alone
    and an operation holds its root object, so an instance shared across threads
    stays correct but may repeat a search."""

    def __init__(self, mode: SearchMode):
        self.mode = mode
        self._norms: dict = {}  # exhaustive: norms by scaled pattern, shared across roots
        self._answers: OrderedDict = OrderedDict()  # `_answer`: (q, question, arg) -> answer

    def norm(self, x: FiniteVector, with_witness: bool = False):
        p = x.pattern()
        if not with_witness and self.mode.kind == "exhaustive" and len(p) <= self.mode.max_support:
            q, e = _scaled(p)  # `_Pieces.norm_of` without its search
            hit = max(q, default=0.0) if len(q) <= 2 else self._norms.get(q)
            if hit is not None:
                return unscale(hit, e)
        S = self._root(p)
        value = unscale(S.value(), S.exp)
        if not with_witness:
            return value
        return value, self._node(x, S, range(x.support_size))

    def triple_norm(self, x: FiniteVector, m: int) -> float:
        if m < 2:
            raise ValueError("the triple norm is defined for m >= 2")
        c, e = self._answer(x.pattern(), "triple", m, lambda S: float(S.best(None, m)))
        return unscale(c / _div(m), e)

    def norm_ell(self, x: FiniteVector, ell: int) -> float:
        """Best family value at exactly `ell` pairs (trailing empty sets allowed)."""
        return self.norm_ell_m0(x, ell, 2)

    def norm_ell_m0(self, x: FiniteVector, ell: int, m0: int) -> float:
        """Like norm_ell but the first (nonempty) set's scale must be >= m0."""
        if ell < 1:
            raise ValueError("need ell >= 1")
        if m0 < 2:
            raise ValueError("need m0 >= 2")
        best, e = self._answer(x.pattern(), "ell", m0, lambda S: tuple(map(float, S.root_best(m0))))
        # best[0] = 0 is the empty family: the max is over at most ell sets
        return unscale(max(best[: ell + 1]) / f(ell), e)

    def evaluate_family(self, x: FiniteVector, fam: AdmissibleFamily) -> float:
        """Value of one explicit family: a certified lower bound for the norm.
        Each set is valued by `triple_norm`, so it is a kept answer or becomes the
        last root; the sum is taken in units of 2**scale_exp(x), as every other
        operation is."""
        fam.validate()
        e, total = scale_exp(x.pattern()), 0.0
        for m, E in fam.pairs:
            total += math.ldexp(self.triple_norm(x.restrict(E), m), -e)
        return unscale(total / f(fam.length), e)

    def _answer(self, p: CoefficientPattern, question: str, arg: int, ask) -> tuple:
        """(ask(root of p), e): the scaled answer, kept by (p * 2**-e, question, arg),
        and the exponent e that unscales it.  Both modes compute from the scaled
        pattern alone, so a kept answer is bit-equal to a fresh one, also for p's
        power-of-two multiples.  Each cache step is one atomic `OrderedDict` call,
        so threads that race repeat a search at worst."""
        q, e = _scaled(p)
        key, answers = (q, question, arg), self._answers
        hit = answers.get(key)
        if hit is None:
            hit = answers[key] = ask(self._root(p))
            while len(answers) > MAX_ANSWERS:
                with suppress(KeyError):  # emptied by other threads meanwhile
                    answers.popitem(last=False)
        else:
            with suppress(KeyError):  # evicted by another thread meanwhile
                answers.move_to_end(key)
        return hit, e

    def _build(self, p: CoefficientPattern) -> _Pieces | _Segment:
        """A new root object of pattern p for this engine's mode, not filled: exhaustive,
        the wave tables if they fit (`_waves_fit`), else the search."""
        if self.mode.kind == "segment":
            return _Segment(p)
        if len(p) > self.mode.max_support:
            raise SupportLimitError(f"support {len(p)} exceeds exhaustive limit "
                                    f"{self.mode.max_support}; use segment mode")
        return (_Waves if _waves_fit(p) else _Pieces)(p, self._norms)

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
            value = unscale(S.best(E, m) / _div(m), S.exp)
            children.append(PartitionWitness(value, m, float(m), pieces))
        return FamilyWitness(unscale(S.value(pos), S.exp), tuple(pairs), tuple(children))


_engine = lru_cache(maxsize=MAX_ENGINES)(FamilyEngine)  # one shared engine per mode


def get_engine(mode: SearchMode | None = None) -> FamilyEngine:
    return _engine(mode or Exhaustive())


def norm_x2(x: FiniteVector, mode: SearchMode | None = None, with_witness: bool = False):
    return get_engine(mode).norm(x, with_witness=with_witness)


def norm_ell(x: FiniteVector, ell: int, mode: SearchMode | None = None) -> float:
    return get_engine(mode).norm_ell(x, ell)
