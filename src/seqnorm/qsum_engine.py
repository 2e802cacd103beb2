"""Engine for the scale-sequence norm (space "x1").

The norm satisfies

    ||x|| = max( ||x||_inf , ( sum_k ||x||_{n_k}^2 )^(1/2) )
    ||x||_k = max_{E_1 < ... < E_k} (1/f(k)) * sum_i ||E_i x||

for a configurable strictly increasing integer sequence (n_k).  Every scale
with n_k >= |supp(x)| is exact in closed form: singleton pieces are optimal
there (piece norms are dominated by their l1 mass), so ||x||_{n_k} =
l1(x)/f(n_k) and the tail of the square sum aggregates analytically.  In
particular, whenever |supp(x)| <= n_1 the norm is max(||x||_inf, Q * l1(x))
with Q = (sum_k f(n_k)^-2)^(1/2); the ``paper`` preset has n_1 ~ 2**40, so at
desk scale it always hits this closed form (asserted, not hidden).

Partition pieces are consecutive runs of support points, which is exact here:
no cardinality budget makes a larger piece cost anything.  The engine fills
the interval tables of `run_tables`, whose hook here is the square sum over
the scales that split a run, for the counts reachable from {n_k < n} under
m -> (ceil(m/2), floor(m/2)): O(log n) counts for geometric scales, as in both
presets.  `QSumEngine` is a `run_tables.Engine`: the last root's tables are
kept for a witness right after the norm, and a count asked of `norm_k` or
`best_partition_sum` adds its rows to them.

Presets:

* ``paper``: f(n_k) = 20 * 2**k, i.e. n_k = 2**(20 * 2**k) - 1.  Satisfies
  the sum-of-reciprocals smallness constraint (sum 1/f(n_k) = 1/20 < 1/10).
* ``small``: n_k = 2**(k+3) - 1, i.e. f(n_k) = k + 3.  Violates that
  constraint but keeps Q < 1, so the construction still yields a norm with
  unit basis vectors; partitions activate for supports above 15.
* custom: explicit integer f-values continued by a "zeta" (+1 steps) or
  "geometric" (doubling) rule, with analytically evaluated tails.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .blocks import BlockBasis, check_normalized
from .core import CoefficientPattern, FiniteVector, IndexSet, f
from .run_tables import MAX_ENGINES, Engine, RunTables, unscale
from .witness import PartitionWitness, QuadraticWitness, SupWitness, Witness


class ConfigError(ValueError):
    pass


def _zeta2(a: int) -> float:
    """sum_{j >= a} j^-2 for an integer a >= 1: the Euler-Maclaurin tail at max(a, 20)
    through B_10 (Abramowitz & Stegun 6.4), then the terms below 20 from the smallest up."""
    u = 1.0 / max(a, 20)
    y = u * u
    total = u + y * (0.5 + u * (1 / 6 - y * (1 / 30 - y * (1 / 42 - y * (1 / 30 - y * 5 / 66)))))
    return sum((1.0 / (j * j) for j in range(19, a - 1, -1)), total)


@dataclass(frozen=True)
class QSumConfig:
    """Scale sequence (n_k) given through integer exponents f(n_k).

    `explicit_f` lists f(n_1), f(n_2), ... up to some K0; beyond K0 the
    exponents continue by `tail_rule`: "zeta" adds 1 per step, "geometric"
    doubles per step.  n_k = 2**f_k - 1 exactly.
    """

    preset: str  # "small" | "paper" | "custom"
    explicit_f: tuple[int, ...]
    tail_rule: str  # "zeta" | "geometric"

    def __post_init__(self) -> None:
        if self.tail_rule not in ("zeta", "geometric"):
            raise ConfigError(f"unknown tail rule {self.tail_rule!r}")
        fs = self.explicit_f
        if not fs:
            raise ConfigError("need at least one exponent")
        if any(v != int(v) or v < 2 for v in fs):
            raise ConfigError("exponents must be integers >= 2")
        if any(a >= b for a, b in zip(fs, fs[1:])):
            raise ConfigError("exponents must be strictly increasing")
        if not self.q < 1.0:
            raise ConfigError(
                f"Q = {self.q} >= 1; the construction requires Q < 1 for unit basis vectors"
            )

    # -- the sequence --------------------------------------------------

    def f_exponent(self, k: int) -> int:
        """f(n_k) as an exact integer."""
        k0 = len(self.explicit_f)
        if k < 1:
            raise ValueError("scales are indexed from 1")
        if k <= k0:
            return self.explicit_f[k - 1]
        last = self.explicit_f[-1]
        if self.tail_rule == "zeta":
            return last + (k - k0)
        return last << (k - k0)

    def n_at(self, k: int) -> int:
        return (1 << self.f_exponent(k)) - 1

    def f_nk(self, k: int) -> float:
        return float(self.f_exponent(k))

    def tail(self, start: int) -> float:
        """sum_{k >= start} f(n_k)^-2: the explicit head, then the continuation in closed form."""
        last, j = self.explicit_f[-1], max(start - len(self.explicit_f), 1)
        head = sum(1.0 / (v * v) for v in self.explicit_f[start - 1 :])
        if self.tail_rule == "zeta":
            return head + _zeta2(last + j)  # sum_{i >= j} (last + i)^-2
        return head + (4.0 / 3.0) * (0.25**j) / (last * last)  # sum_{i >= j} (last * 2**i)^-2

    @property
    def q(self) -> float:
        return math.sqrt(self.tail(1))

    # -- presets and files ----------------------------------------------

    @staticmethod
    def small() -> "QSumConfig":
        return QSumConfig("small", (4,), "zeta")

    @staticmethod
    def paper_faithful() -> "QSumConfig":
        return QSumConfig("paper", (40,), "geometric")

    @staticmethod
    def custom(f_of_nk, tail: str = "zeta") -> "QSumConfig":
        values = tuple(f_of_nk)
        if any(v != int(v) for v in values):
            raise ConfigError(f"exponents must be integers, got {values}")
        return QSumConfig("custom", tuple(int(v) for v in values), tail)

    def to_json(self) -> dict:
        if self.preset in ("small", "paper"):
            return {"preset": self.preset}
        return {
            "preset": {
                "custom": {"f_of_nk": list(self.explicit_f), "tail": self.tail_rule}
            }
        }

    @staticmethod
    def from_json(obj) -> "QSumConfig":
        preset = obj.get("preset") if isinstance(obj, dict) else None
        if preset == "small":
            return QSumConfig.small()
        if preset == "paper":
            return QSumConfig.paper_faithful()
        if isinstance(preset, dict) and "custom" in preset:
            spec = preset["custom"]
            return QSumConfig.custom(spec["f_of_nk"], spec.get("tail", "zeta"))
        raise ConfigError(f"cannot parse config {obj!r}")


class _Tables(RunTables):
    """Run tables of an x1 root, with C_m for the scales that split it."""

    def __init__(self, engine: "QSumEngine", p: CoefficientPattern):
        self.scales = engine._scales(len(p))
        self.nks = [nk for nk, _ in self.scales]
        self.tails = [engine.cfg.tail(c + 1) for c in range(len(self.scales) + 1)]
        super().__init__(p, self.nks)

    def outer(self, C, values):
        def step(L, cnt):  # the square sum over the scales that split length L
            l1, sup = self.l1[L, :cnt], self.sup[L, :cnt]
            c = bisect_left(self.nks, L)
            ssq = sum((C[self.row[nk], L, :cnt] / f_nk) ** 2 for nk, f_nk in self.scales[:c])
            values[L, :cnt] = np.maximum(sup, np.sqrt(ssq + l1 * l1 * self.tails[c]))
        return step


class QSumEngine(Engine):
    """Evaluator for the scale-sequence norm on interval tables."""

    def __init__(self, config: QSumConfig):
        self.cfg = config

    # -- public ----------------------------------------------------------

    def norm(self, x: FiniteVector, with_witness: bool = False):
        T = self._root(x.pattern())
        value = unscale(T.value(), T.exp)
        if not with_witness:
            return value
        return value, self._witness(T, x.indices, 0, x.support_size)

    def norm_k(self, x: FiniteVector, k: int) -> float:
        """The k-partition seminorm (1/f(k)) * best partition sum, any k >= 1."""
        if k < 1:
            raise ValueError("need k >= 1")
        T = self._root(x.pattern())
        return unscale(T.best(None, k) / f(k), T.exp)  # divided in scaled units: no overflow

    def profile(self, x: FiniteVector, K: int) -> tuple[list[float], float]:
        """Scale profile: ||x||_{n_k} for k <= K, plus the l2 mass beyond K."""
        if K < 1:
            raise ValueError("need K >= 1")
        T = self._root(x.pattern())
        head = [unscale(T.best(None, self.cfg.n_at(k)) / self.cfg.f_nk(k), T.exp)
                for k in range(1, K + 1)]
        l1 = T.l1[len(T.p), 0]
        ssq = sum((T.best(None, nk) / f_nk) ** 2 for nk, f_nk in T.scales[K:])
        ssq += l1 * l1 * self.cfg.tail(max(K, len(T.scales)) + 1)
        return head, unscale(math.sqrt(ssq), T.exp)

    def block_sum_lower_bound(self, blocks: list[FiniteVector]) -> float:
        """Margin ||sum y_j|| - count/f(count) for count = some n_i, blocks normalized."""
        count = len(blocks)
        k = len(self._scales(count)) + 1
        if self.cfg.n_at(k) != count:
            raise ValueError(
                f"block count {count} is not one of the configured scales "
                f"(nearest are {self.cfg.n_at(max(k - 1, 1))} and {self.cfg.n_at(k)})"
            )
        check_normalized(BlockBasis(tuple(blocks)), self)  # successive supports, each of norm 1
        bound = count / self.cfg.f_nk(k)
        return self.norm(FiniteVector.sum(blocks)) - bound

    # -- tables and witnesses ----------------------------------------------

    def _scales(self, n: int) -> list[tuple[int, float]]:
        """(n_k, f(n_k)) for k = 1, 2, ... while n_k < n: the scales that split n points."""
        out = []
        while self.cfg.n_at(len(out) + 1) < n:
            out.append((self.cfg.n_at(len(out) + 1), self.cfg.f_nk(len(out) + 1)))
        return out

    def _build(self, p: CoefficientPattern) -> _Tables:
        return _Tables(self, p)

    def _witness(self, T: _Tables, idx: tuple[int, ...], s: int, L: int) -> Witness:
        """Certificate for the norm of the run p[s:s+L], with the splits `runs` re-derives."""
        if not L:
            return SupWitness(0.0, None)
        run = T.p[s : s + L]
        if T.N[L, s] <= T.sup[L, s]:
            return SupWitness(max(run), idx[s + run.index(max(run))])
        head = []
        for nk, f_nk in T.scales[: bisect_left(T.nks, L)]:
            runs = T.runs(nk, s, L)
            pieces = tuple((IndexSet(idx[a : a + w]), self._witness(T, idx, a, w))
                           for a, w in runs)
            total = sum(T.N[w, a] for a, w in runs)
            head.append((nk, PartitionWitness(unscale(total / f_nk, T.exp), nk, f_nk, pieces)))
        tail_l2 = unscale(T.l1[L, s] * math.sqrt(T.tails[len(head)]), T.exp)
        value = math.hypot(*(w.value for _, w in head), tail_l2)
        return QuadraticWitness(value, tuple(head), len(head) + 1, tail_l2)


# -- module-level functional surface --------------------------------------

_engine = lru_cache(maxsize=MAX_ENGINES)(QSumEngine)  # one shared engine per config


def get_qsum_engine(config: QSumConfig | None = None) -> QSumEngine:
    return _engine(config or QSumConfig.small())


def norm_x1(x: FiniteVector, config: QSumConfig | None = None, with_witness: bool = False):
    return get_qsum_engine(config).norm(x, with_witness=with_witness)
