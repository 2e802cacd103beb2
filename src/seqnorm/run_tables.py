"""Interval tables over the runs of one root: the partition kernel of both engines.

Every partition piece either norm needs is a run p[s:s+L] of the root's
coefficient pattern p (``x1``: no cardinality budget makes a larger piece
cost anything; ``x2`` segment mode: admissible sets are runs).  By length L
and start s, `RunTables` holds run sums l1[L, s], maxima sup[L, s], values
N[L, s] and the best sums C_m[L, s] of run values over partitions into at
most m runs.  C_1 = N, C_m = l1 once m >= L, and

    C_m[L, s] = max_{0<t<L}  C_{ceil(m/2)}[t, s] + C_{floor(m/2)}[L-t, s+t].

Proof: a single piece is dominated by any two-way split (triangle
inequality), so C_m is the best sum over r-run partitions, 2 <= r <= m, and
each right-hand term is one.  Conversely, cut an r-run partition after its
run j = max(1, r - floor(m/2)): if r > floor(m/2) the left part has
j <= ceil(m/2) runs and the right part floor(m/2); otherwise the left part has
one run and the right r - 1 < floor(m/2).  Only subadditivity of the piece
values is used, and every level of the inductive construction is a norm, so
`levels` and `residual` run the same fill on given values.

Floor rule: C_m / m is non-increasing in m if the piece values are
nonnegative, equal |p_i| on singletons and do not decrease when a run grows.
Let m < m' and take a partition attaining C_{m'}, of r <= m' runs.  If r <= m,
C_m >= C_{m'}.  Otherwise its m largest runs sum to at least (m/r) C_{m'};
join every other run to the nearest of them on its left (before the first, to
the first): m runs, each worth at least the one it holds, so C_m >= (m/m')
C_{m'}.  The norms qualify (1-unconditional), and so do every level of the
iteration, the norms the residual maps and ``x2``'s segment lower bound (by
induction on length: a partition or family of a run is one of every run
containing it).  So a run's triple norm at floor fl, max_{m >= fl} C_m / m, is
C_fl / fl (l1 / fl once fl >= L).  Rows are the counts asked for and 1, closed
under halving: ``x1``'s scales, ``x2``'s floors 2, 4, ..., so O(log n) rows
and O(n^3 log n) additions; `table` adds a count asked later.

The fill goes by increasing length, the rests C_b[L-t, s+t] read through one
strided view (`rests`).  While the candidates of all rows of a length fit in
`SPLIT_BYTES`, one numpy reduction takes their max; past it (long runs), each
row adds its two views into one buffer, a block of split points at a time, and
combines the block maxima with `np.maximum`: no gather and no temporary past
the cache, and the same bits, max being exact.  Then a hook of the engine
(`outer`) turns the sums into the values of the runs of that length.  Only
values are stored: a witness walk re-derives the split of each state it visits
as the first argmax of the same candidates (`_splits`).

One scaling rule for both engines: a root object holds q = p * 2**-e, with
`scale_exp` e putting max(q) in [0.5, 1), and `unscale` maps values back:
exact, free of overflow, homogeneous over the double range.  `Engine` is the
frame of both engines: the last root, partition sums, and the residual and the
level iteration, written once on the root protocol (`fill(piece)`, `sup`, `key`,
`remap`).  A root the engine keeps is written only by its own first fill.

Family states of ``x2``: after c consumed points the next scale is at least
fl(c) = max(2, 2**c).  F[c, L, s, k] is the best sum of tn(E_i, fl(c_i)) over
families of exactly k runs inside the suffix p[s:s+L], c points consumed
before it; it serves every run of the root ending at s + L.  F[c, 0] = [0];
otherwise F[c, L, s] is the better of skipping p[s] (F[c, L-1, s+1]) and

    F[c, L, s, k] = max_{1<=t<=L}  tn(p[s:s+t], fl(c)) + F[c+t, L-t, s+t, k-1],

for k = 1 a running maximum over L.  Merged tail: once fl(c) >= L, every run E
left has tn(E, fl) = l1(E) / fl with floors that only grow, so any family of
j >= 1 runs sums to at most l1(p[s:s+L]) / fl(c), the value of one merged run,
and F[c, L, s] = [0, l1 / fl(c)] keeps the best sum over at most k sets for
every k, all that the norm (max_k F[0, L, s, k] / f(k), f increasing) and the
seminorms read.  Every state with 2**c >= n is such a tail: only c < nc =
max(2, ceil(log2 n)) is searched, a family has at most nc + 1 sets, and the
rest after t > nc points is [0, l1 / 2**(c+t)].  So length L reads lengths
L-1 .. L-nc on its right end only: the fill needs the states of nc + 1
lengths at a time, O(n log^2 n) numbers beside the O(n^2 log n) tables, and
the states of one right end e follow from tn and l1 again, row c from rows > c.
"""
from __future__ import annotations

import math
import threading
from bisect import bisect_left

import numpy as np

from .core import EQ_TOL

SPLIT_BYTES = 512 * 1024  # split candidates in one temporary up to this size, else in blocks of it:
# a share of a core's L2 cache (256 KiB and 1 MiB measured about the same)
MAX_ENGINES = 8  # engines kept per module by `get_engine` / `get_qsum_engine`, least recent out:
# each holds a norm memo or its last root's tables, and the suites and the CLI use two at most


class IterationCapError(RuntimeError):
    """Level iteration exceeded its cap without stabilizing."""


def scale_exp(p) -> int:
    """The exponent e with max(p) * 2**-e in [0.5, 1) (e = 1 for an empty p)."""
    return math.frexp(max(p, default=1.0))[1]


def unscale(v: float, exp: int) -> float:
    """A value of the scaled pattern back in the units of p; beyond the double range raises."""
    try:
        return math.ldexp(float(v), exp)
    except OverflowError:
        raise OverflowError(f"value {float(v)} * 2**{exp} exceeds the double range") from None


def rests(a: np.ndarray) -> np.ndarray:
    """The view r[..., L, u, s] = a[..., u, s+L-u] of a[..., L, s], the last u points of
    the run p[s:s+L]: strides >= 0 and a's last element, so numpy finds it inside a."""
    *lead, rows, cols = a.shape
    *st, s1, s2 = a.strides
    return np.ndarray((*lead, rows, rows, cols), a.dtype, a, 0, (*st, s2, s1 - s2, s2))


def _run(rows: np.ndarray) -> np.ndarray | slice:
    """rows as a slice if they are consecutive, so that numpy takes a view, not a copy."""
    r = rows.tolist()
    return slice(r[0], r[-1] + 1) if r == list(range(r[0], r[-1] + 1)) else rows


class RunTables:
    """Tables of root pattern p: entry [L, s] is for the run p[s:s+L].

    `ms` are the counts m to tabulate C_m for, closed here under
    m -> (ceil(m/2), floor(m/2)) and with 1.  A subclass supplies `outer`."""

    def __init__(self, p, ms):
        n = max(len(p), 1)  # an empty root gets one row and column of zeros, so N[0, 0] = 0
        self.p, self.exp, self.key = p, scale_exp(p), (len(p), 0)
        self.ms, self._lock = [], threading.Lock()
        self.row = self._index([1, *ms])
        z = np.zeros(2 * n - 1)
        z[: len(p)] = np.ldexp(np.array(p, dtype=float), -self.exp)
        runs = np.ndarray((n, n), z.dtype, z, 0, z.strides * 2)  # runs[L-1, s] = z[s+L-1]
        self.l1, self.sup = np.zeros((n + 1, n)), np.zeros((n + 1, n))
        np.add.accumulate(runs, axis=0, out=self.l1[1:])
        np.maximum.accumulate(runs, axis=0, out=self.sup[1:])

    def _index(self, ms) -> dict:
        """Append the counts ms and halvings that are not rows yet; return the row map."""
        done, todo = set(self.ms), set(ms) - set(self.ms)
        while todo:
            done |= todo
            todo = {k for m in todo if m > 1 for k in ((m + 1) // 2, m // 2)} - done
        ms = self.ms + sorted(done - set(self.ms))
        row = {m: i for i, m in enumerate(ms)}
        # the rows C_m splits into, C_{ceil(m/2)} and C_{floor(m/2)}; m = 1 does not split
        self.up = np.array([0] + [row[(m + 1) // 2] for m in ms[1:]])
        self.down = np.array([0] + [row[m // 2] for m in ms[1:]])
        self.ms = ms
        return row

    def outer(self, C: np.ndarray, values: np.ndarray):
        """The hook: a function of (L, cnt) setting values[L, :cnt] from C[:, L, :cnt]."""
        raise NotImplementedError

    def fill(self, piece: np.ndarray | None = None) -> np.ndarray:
        """Fill C[i] = C_{ms[i]} by increasing length; return the run values: the
        norms, kept with C, or with `piece` (then C[0]), values by run like `sup`,
        one application of the fixed-point map to those piece values."""
        ms = self.ms  # `table` puts a count another thread adds meanwhile in a new list
        C = self.l1[None].repeat(len(ms), 0)
        if piece is None:
            self.C, self.N, values = C, C[0], C[0]
        else:
            C[0], values = piece, self.sup.copy()
        self._grow(C, np.argsort(ms)[1:], self.outer(C, values))
        return values

    def table(self, m: int) -> np.ndarray:
        """C_m of every run, scaled (l1 once m >= n).  A count not tabulated is added:
        only its missing rows are filled, from N; other rows and `outer`'s states stay."""
        if m >= len(self.p):
            return self.l1
        with self._lock:  # one writer; rows only grow, and `row` names one once C holds it
            if m not in self.row:
                k, row = len(self.ms), self._index([m])
                C = np.concatenate([self.C, self.l1[None].repeat(len(self.ms) - k, 0)])
                self._grow(C, np.arange(k, len(self.ms)), lambda L, cnt: None)
                self.C, self.N, self.row = C, C[0], row
        return self.C[self.row[m]]

    def _grow(self, C, rows, step):
        """Fill the rows of C (ascending counts) by increasing length, then step(L, cnt)."""
        n, cut = len(self.p), [self.ms[i] for i in rows]
        R, j, buf = rests(C) if n > 2 else None, 0, None
        for L in range(2, n + 1):
            cnt = n - L + 1
            if j < len(cut) and cut[j] < L:  # the rows with counts m < L, and those they split into
                j = bisect_left(cut, L)
                i, up, down = _run(rows[:j]), _run(self.up[rows[:j]]), _run(self.down[rows[:j]])
            if j and j * (L - 1) * cnt * 8 <= SPLIT_BYTES:
                C[i, L, :cnt] = self._splits(C, R, up, down, L, slice(0, cnt)).max(axis=1)
            elif j:  # row by row over views, in blocks of split points that fit the budget
                k = max(1, SPLIT_BYTES // (8 * cnt))
                if buf is None:  # cnt only shrinks; local to the call, since threads share roots
                    buf = np.empty(max(SPLIT_BYTES // 8, cnt))
                for r in rows[:j].tolist():  # an int row: C[r, L] is a view, not a copy
                    a, b, out = self.up[r], self.down[r], C[r, L, :cnt]
                    for t0 in range(1, L, k):
                        t1 = min(t0 + k, L)
                        block = np.add(C[a, t0:t1, :cnt], R[b, L, L - t0 : L - t1 : -1, :cnt],
                                       out=buf[: (t1 - t0) * cnt].reshape(t1 - t0, cnt))
                        if t0 == 1:
                            block.max(axis=0, out=out)
                        else:
                            np.maximum(out, block.max(axis=0), out=out)
            step(L, cnt)

    @staticmethod
    def _splits(C, R, up, down, L, s):
        """[., t-1, .] = C_a[t, s] + C_b[L-t, s+t] for 0 < t < L, over the rows `up` of
        C_a, a = ceil(m/2), and `down` of C_b, b = floor(m/2), of the counts m; R = rests(C)."""
        return C[up, 1:L, s] + R[down, L, L - 1 : 0 : -1, s]

    def bps(self, m: int, L: int | None = None, s: int = 0) -> float:
        """C_m of the run p[s:s+L] (default: the whole root), scaled."""
        return self.table(m)[len(self.p) if L is None else L, s]

    def value(self, pos=None) -> float:
        """The norm of the run at the root positions pos (default: the root), scaled."""
        return self.N[self.key] if pos is None else self.N[len(pos), pos[0]]

    def best(self, pos, m: int) -> float:
        """C_m of the run at the root positions pos (None: the root), scaled."""
        return self.bps(m) if pos is None else self.bps(m, len(pos), pos[0])

    def runs(self, m: int, s: int, L: int, R: np.ndarray | None = None) -> list[tuple[int, int]]:
        """(start, length) of the runs of p[s:s+L] whose values sum to C_m."""
        if m >= L:
            return [(s + i, 1) for i in range(L)]
        if m == 1:
            return [(s, L)]
        R = rests(self.C) if R is None else R
        i = self.row[m]
        t = int(self._splits(self.C, R, self.up[i], self.down[i], L, s).argmax()) + 1
        return self.runs((m + 1) // 2, s, t, R) + self.runs(m // 2, s + t, L - t, R)

    def remap(self, fresh: RunTables) -> float:
        """The fixed-point map at the root, taken once on `fresh`, a new root object of
        the same pattern, with these norms as piece values; scaled."""
        return fresh.fill(piece=self.N)[self.key]


class Engine:
    """The frame of both engines.  A subclass supplies `_build(p)`, a new root
    object of pattern p; the last one is kept.  A root object maps given piece
    values, laid out as its `sup`, once through the fixed-point map (`fill(piece)`);
    `key` is the root's entry and `remap(fresh)` takes the map there only, on a new
    object, with the root's norms as pieces.  `_root` fills a root (`fill()`) before
    it keeps it, and nothing writes its arrays after that.  An operation holds its
    root object, so an engine shared across threads stays correct but may repeat a fill."""

    _last = None

    def _root(self, p):
        """The filled root object of pattern p: the last root's if it was p."""
        T = self._last
        if T is None or T.p != p:
            T = self._build(p)
            T.fill()
            self._last = T
        return T

    def best_partition_sum(self, x, m: int) -> float:
        """Best sum of piece norms over partitions of x into at most m runs."""
        if m < 1:
            raise ValueError("need m >= 1")
        T = self._root(x.pattern())
        return unscale(T.best(None, m), T.exp)

    def fixed_point_residual(self, x) -> float:
        """|LHS - RHS| of the implicit equation, the RHS supremum re-evaluated
        one step with the computed norm as the piece oracle.  That re-runs the
        map the engine computed its norms with on those same norms, so it reads
        0.0 whenever the search is deterministic (0.0 on every vector sampled,
        in both modes of ``x2`` and in ``x1``): it catches a search that does
        not reproduce its own values.  Convergence of the construction is what
        `iterate_levels` checks."""
        p = x.pattern()
        if not p:
            return 0.0
        T = self._root(p)
        return abs(unscale(T.value(), T.exp) - unscale(T.remap(self._build(p)), T.exp))

    def iterate_levels(self, x) -> list[float]:
        """Level values of the inductive norm construction at the root, on a root
        object that is not kept: pieces start at their sup norms, then values ->
        max(values, map(values)) until nothing moves by EQ_TOL * max|x|, at most
        10 |supp x| times."""
        p = x.pattern()
        if not p:
            return [0.0]
        T, cap = self._build(p), 10 * len(p)
        values = T.sup
        top, levels = values[T.key], [unscale(values[T.key], T.exp)]
        for _ in range(cap):
            new_values = np.maximum(values, T.fill(piece=values))
            delta, values = (new_values - values).max(), new_values
            levels.append(unscale(values[T.key], T.exp))
            if delta < EQ_TOL * top:
                return levels
        raise IterationCapError(f"no stabilization within {cap} levels; last value {levels[-1]}")
