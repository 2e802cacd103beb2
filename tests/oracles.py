"""Brute-force reference implementations used only by the tests.

These deliberately share as little reasoning as possible with the package
engines: values are computed by the plain inductive construction, iterating
over raw index subsets (no coefficient-pattern collapsing), with family sets
and partition pieces enumerated as arbitrary ordered subsets (no
consecutive-run reduction and no search pruning).  Tail sums for the
scale-sequence norm use mpmath rather than scipy.

Everything here except `RunScaleNorm` is exponential and only usable for
supports up to ~6.
"""
from __future__ import annotations

import math
from itertools import combinations

import mpmath


def _f(t: float) -> float:
    return math.log2(1.0 + t)


def _subsets(points: tuple[int, ...]):
    for r in range(1, len(points) + 1):
        yield from combinations(points, r)


def _ordered_tuples(points: tuple[int, ...], max_parts: int | None = None):
    """All tuples (A_1 < ... < A_l) of disjoint nonempty subsets of `points`.

    Enumerated as: pick the first part (any subset), then recurse on the
    points strictly to the right of its maximum.
    """
    out = [()]
    stack = [((), points)]
    while stack:
        prefix, rest = stack.pop()
        if max_parts is not None and len(prefix) >= max_parts:
            continue
        for part in _subsets(rest):
            new_prefix = prefix + (part,)
            out.append(new_prefix)
            tail = tuple(i for i in rest if i > part[-1])
            if tail:
                stack.append((new_prefix, tail))
    return out


def _scales_for(budget: int, limit: int):
    """Integer scales m with m >= 2 and f(m) > budget, scanned up to `limit`."""
    lo = 2
    while _f(lo) <= budget + 1e-15:
        lo += 1
    return range(lo, max(lo, limit) + 1)


class BruteFamilyNorm:
    """Reference for the admissible-family norm on one fixed vector."""

    def __init__(self, vec):
        self.coef = {i: abs(c) for i, c in zip(vec.indices, vec.coefficients)}
        self.points = tuple(vec.indices)

    def norm(self) -> float:
        vals = self._converged()
        return vals[self.points] if self.points else 0.0

    def norm_retricted(self, subset) -> float:
        vals = self._converged()
        return vals[tuple(subset)]

    def triple_norm(self, m: int) -> float:
        vals = self._converged()
        return self._tuple_sup(self.points, m, vals) / m

    def norm_ell(self, ell: int) -> float:
        vals = self._converged()
        best = 0.0
        for fam in self._families(self.points, max_sets=ell):
            if not fam:
                continue
            best = max(best, self._family_value(fam, vals, ell))
        return best / _f(ell)

    def norm_ell_m0(self, ell: int, m0: int) -> float:
        vals = self._converged()
        best = 0.0
        for fam in self._families(self.points, max_sets=ell):
            if not fam:
                continue
            best = max(best, self._family_value(fam, vals, ell, first_scale=m0))
        return best / _f(ell)

    # -- internals ------------------------------------------------------

    def _converged(self):
        if hasattr(self, "_vals"):
            return self._vals
        subsets = [()] + list(_subsets(self.points))
        vals = {s: max((self.coef[i] for i in s), default=0.0) for s in subsets}
        for _ in range(10 * max(1, len(self.points))):
            new = {}
            moved = 0.0
            for s in subsets:
                cand = vals[s]
                for fam in self._families(s):
                    if not fam:
                        continue
                    ell = len(fam)
                    cand = max(cand, self._family_value(fam, vals, ell) / _f(ell))
                new[s] = cand
                moved = max(moved, cand - vals[s])
            vals = new
            if moved < 1e-13:
                break
        self._vals = vals
        return vals

    def _families(self, points, max_sets=None):
        return _ordered_tuples(tuple(points), max_sets)

    def _family_value(self, fam, vals, ell, first_scale: int = 2) -> float:
        # best admissible scale assignment: scan scales per set, budgets exact
        total = 0.0
        budget = 0
        for pos, E in enumerate(fam):
            best_term = 0.0
            limit = len(E) + 3
            if pos == 0:
                lo = max(2, first_scale)
                scales = range(lo, max(lo, limit) + 1)
            else:
                scales = _scales_for(budget, limit)
            for m in scales:
                best_term = max(best_term, self._tuple_sup(E, m, vals) / m)
            total += best_term
            budget += len(E)
        return total

    def _tuple_sup(self, E, m, vals) -> float:
        best = vals[tuple(E)]  # single piece
        for pieces in _ordered_tuples(tuple(E), m):
            if not pieces:
                continue
            best = max(best, sum(vals[p] for p in pieces))
        return best


class BruteScaleNorm:
    """Reference for the scale-sequence norm on one fixed vector."""

    def __init__(self, vec, exponents):
        """`exponents` is the full f(n_k) progression rule: a callable k -> int."""
        self.coef = {i: abs(c) for i, c in zip(vec.indices, vec.coefficients)}
        self.points = tuple(vec.indices)
        self.f_exp = exponents

    def tail(self, start: int) -> float:
        # mpmath-based: explicit sum while exponents step by +1 forever
        # (only the zeta-style continuation is exercised by the oracle tests)
        a = self.f_exp(start)
        probe = self.f_exp(start + 1)
        if probe != a + 1:
            raise NotImplementedError("oracle tail assumes +1 exponent steps")
        return float(mpmath.zeta(2, a))

    def norm(self) -> float:
        vals = self._converged()
        return vals[self.points] if self.points else 0.0

    def norm_k(self, k: int) -> float:
        vals = self._converged()
        return self._tuple_sup(self.points, k, vals) / _f(k)

    def _converged(self):
        if hasattr(self, "_vals"):
            return self._vals
        subsets = [()] + list(_subsets(self.points))
        vals = {s: max((self.coef[i] for i in s), default=0.0) for s in subsets}
        for _ in range(10 * max(1, len(self.points))):
            new = {}
            moved = 0.0
            for s in subsets:
                new[s] = max(vals[s], self._rhs(s, vals))
                moved = max(moved, new[s] - vals[s])
            vals = new
            if moved < 1e-13:
                break
        self._vals = vals
        return vals

    def _rhs(self, s, vals) -> float:
        if not s:
            return 0.0
        sup = max(self.coef[i] for i in s)
        l1 = sum(self.coef[i] for i in s)
        ssq = 0.0
        k = 1
        while (1 << self.f_exp(k)) - 1 < len(s):
            nk = (1 << self.f_exp(k)) - 1
            ssq += (self._tuple_sup(s, nk, vals) / self.f_exp(k)) ** 2
            k += 1
        ssq += l1 * l1 * self.tail(k)
        return max(sup, math.sqrt(ssq))

    def _tuple_sup(self, E, m, vals) -> float:
        best = vals[tuple(E)]
        for pieces in _ordered_tuples(tuple(E), m):
            if not pieces:
                continue
            best = max(best, sum(vals[p] for p in pieces))
        return best


class RunScaleNorm:
    """Scale-sequence norm by the first-piece recursion over consecutive runs,

        C_m(a, b) = max_{a<t<b} ||p[a:t]|| + C_{m-1}(t, b),

    memoized on (a, b, m): the formulation the engine's halving tables
    replace, polynomial and so usable up to ~40 points."""

    def __init__(self, vec, cfg):
        self.p = vec.pattern()
        self.cfg = cfg
        self.memo: dict = {}

    def norm(self, a: int = 0, b: int | None = None) -> float:
        b = len(self.p) if b is None else b
        if b == a:
            return 0.0
        if (a, b, 1) not in self.memo:
            run = self.p[a:b]
            ssq, k = 0.0, 1
            while self.cfg.n_at(k) < b - a:
                ssq += (self.bps(a, b, self.cfg.n_at(k)) / self.cfg.f_nk(k)) ** 2
                k += 1
            ssq += sum(run) ** 2 * self.cfg.tail(k)
            self.memo[(a, b, 1)] = max(max(run), math.sqrt(ssq))
        return self.memo[(a, b, 1)]

    def bps(self, a: int, b: int, m: int) -> float:
        if m >= b - a:
            return sum(self.p[a:b])
        if m == 1:
            return self.norm(a, b)
        if (a, b, m) not in self.memo:
            self.memo[(a, b, m)] = max(
                self.norm(a, t) + self.bps(t, b, m - 1) for t in range(a + 1, b)
            )
        return self.memo[(a, b, m)]


def evaluate_witness_restrict(w, x) -> float:
    """Reference witness evaluator: every child is evaluated against a new
    restriction x.restrict(E), terms divided before they are summed."""
    from seqnorm.core import f
    from seqnorm.witness import FamilyWitness, PartitionWitness, QuadraticWitness, SupWitness

    if isinstance(w, SupWitness):
        if w.index is None:
            return 0.0
        return abs(x.coefficient(w.index))
    if isinstance(w, PartitionWitness):
        return sum(evaluate_witness_restrict(child, x.restrict(E)) / w.divisor
                   for E, child in w.pieces)
    if isinstance(w, FamilyWitness):
        div = f(len(w.pairs))
        return sum(evaluate_witness_restrict(child, x.restrict(E)) / div
                   for (_, E), child in zip(w.pairs, w.children))
    if isinstance(w, QuadraticWitness):
        return math.hypot(*(evaluate_witness_restrict(child, x) for _, child in w.head),
                          w.tail_l2)
    raise TypeError(f"not a witness: {w!r}")
